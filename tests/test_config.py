import json
import re

import pytest

from fracharm.config import ConfigError, CorpusSpec, ExperimentConfig


def make(d=None, **kw):
    base = {"experiment": "star-sum"}
    base.update(d or {})
    base.update(kw)
    return ExperimentConfig.from_dict(base)


class TestDefaults:
    def test_dimension_one_grid_defaults(self):
        cfg = make()
        assert cfg.box == ((-8.0, 8.0),)
        assert cfg.h == 2.0 ** -8
        assert cfg.corpus.count == 100
        assert cfg.sweep == (-3, -2, -1, 0, 1, 2, 3)
        assert cfg.slope_tol == 0.1

    def test_dimension_two_grid_defaults(self):
        cfg = make(n=2)
        assert cfg.box == ((-2.0, 2.0), (-2.0, 2.0))
        assert cfg.h == 2.0 ** -5
        assert cfg.corpus.count == 20

    def test_explicit_corpus_count_kept(self):
        assert make(corpus={"count": 7}).corpus.count == 7

    def test_sweep_range_and_list_forms(self):
        assert make(sweep={"k_min": -1, "k_max": 2}).sweep == (-1, 0, 1, 2)
        assert make(sweep={"ks": [0, 2, -2]}).sweep == (0, 2, -2)

    @pytest.mark.parametrize("sweep", [{"ks": [1, 2]}, {"k_min": 1, "k_max": 3}],
                             ids=["ks", "k_min-positive"])
    def test_sweep_without_base_scale_refused(self, sweep):
        # dilation_drift and max_tail_share are measured at k = 0; a sweep
        # without it used to report 0.0 for both
        with pytest.raises(ConfigError,
                           match=re.escape("'sweep': must contain the base scale k = 0")):
            make(sweep=sweep)


class TestValidation:
    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="bogus"):
            make(bogus=1)

    def test_unknown_nested_field_names_path(self):
        with pytest.raises(ConfigError, match="corpus.bogus"):
            make(corpus={"bogus": 2})

    @pytest.mark.parametrize("path, value", [
        ("moment_order", 1),
        ("truncation", {"value": 1e-6}),
        ("hardy_exponents", [4.0, 4.0]),
        ("corpus.order", 0),
    ], ids=["moment_order", "truncation", "hardy_exponents", "corpus.order"])
    def test_derived_quantity_is_not_a_field(self, path, value):
        # the runs derive these from the paper's hypotheses; a config that
        # sets one is refused instead of silently overriding the derivation
        head, _, tail = path.partition(".")
        with pytest.raises(ConfigError, match=re.escape(f"'{path}': unknown field")):
            make({head: {tail: value} if tail else value})

    def test_dimension_must_be_one_or_two(self):
        with pytest.raises(ConfigError, match="n"):
            make(n=3)

    def test_box_must_tile_by_h(self):
        with pytest.raises(ConfigError, match="multiple"):
            make(grid={"box": [[0.0, 1.0]], "h": 0.3})

    def test_negative_gamma_rejected(self):
        with pytest.raises(ConfigError, match="gamma"):
            make(gamma=-0.5)

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError):
            make(gamma=True)

    def test_vector_count_cap(self):
        with pytest.raises(ConfigError, match="vector_count"):
            make(vector_count=9)

    def test_weight_descriptor_kinds(self):
        cfg = make(weights=[{"kind": "constant", "value": 2.0},
                            {"kind": "power", "exponent": 0.25}])
        kinds = [w.descriptor()["kind"] for w in cfg.weights]
        assert kinds == ["constant", "power"]
        with pytest.raises(ConfigError, match="weights"):
            make(weights=[{"kind": "mystery"}])

    def test_exponent_entries(self):
        cfg = make(exponents=[2.0, {"kind": "log-decay", "limit": 1.2,
                                    "amplitude": 0.3}])
        assert cfg.exponents[0].kind == "constant"
        assert cfg.exponents[0].p_minus == 2.0
        assert cfg.exponents[1].kind == "log-decay"
        with pytest.raises(ConfigError, match="exponents"):
            make(exponents=[{"kind": "step"}])

    def test_log_decay_center_dimension_checked(self):
        with pytest.raises(ConfigError, match="center"):
            make(exponents=[{"kind": "log-decay", "limit": 1.2,
                             "amplitude": 0.3, "center": [0.0, 0.0]}])


class TestJsonLoading:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"experiment": "annuli", "s": 2.0}))
        cfg = ExperimentConfig.from_json(path)
        assert cfg.experiment == "annuli" and cfg.s == 2.0

    def test_malformed_json_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "experiment": "annuli",\n}\n')
        with pytest.raises(ConfigError, match=r"3:1"):
            ExperimentConfig.from_json(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(tmp_path / "nope.json")


class TestDerived:
    def test_with_seed_replaces_only_seed(self):
        cfg = make(corpus={"seed": 1, "count": 3})
        cfg2 = cfg.with_seed(9)
        assert cfg2.corpus.seed == 9 and cfg2.corpus.count == 3
        assert cfg.corpus.seed == 1  # original untouched

    def test_descriptor_echoes_resolved_values(self):
        d = make(gamma=0.5, p=1.0).descriptor()
        assert d["experiment"] == "star-sum"
        assert d["gamma"] == 0.5
        assert d["grid"]["h"] == 2.0 ** -8

    def test_corpus_spec_descriptor(self):
        spec = CorpusSpec.from_dict({"seed": 4, "count": 2,
                                     "side_exponents": [-1, 1]}, "corpus")
        assert spec.descriptor()["side_exponents"] == [-1, 1]
