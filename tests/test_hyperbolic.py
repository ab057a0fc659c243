import pytest

from polystrata.compositions import c_lambda_poset, coarsening_poset, delta_lambda_complex
from polystrata.homology import HomologyResult, sphere_homology
from polystrata.hyperbolic import (
    BACKENDS,
    BackendDisagreement,
    Prediction,
    hook_prediction,
    hyp_homology,
    resonance_free_prediction,
)
from polystrata.verify import partitions_of


class TestBackends:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_each_backend_runs(self, backend):
        assert hyp_homology((1, 2), backend) == sphere_homology(2)

    def test_default_runs_all_and_agrees(self):
        assert hyp_homology((1, 2)) == sphere_homology(2)

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            hyp_homology((1, 2), "nope")

    @pytest.mark.parametrize("n", range(1, 7))
    def test_backends_agree_for_all_small_types(self, n):
        for partition in partitions_of(n):
            if not partition:
                continue
            hyp_homology(partition)  # raises BackendDisagreement on mismatch

    def test_weight_one_special_case(self):
        # the single root sweeps a line; compactified it is a circle
        assert hyp_homology((1,)) == sphere_homology(1)

    @pytest.mark.parametrize(
        "entry",
        [c_lambda_poset, coarsening_poset, delta_lambda_complex, resonance_free_prediction]
        + [lambda p, b=b: hyp_homology(p, b) for b in (None,) + BACKENDS],
        ids=["c_lambda", "coarsening", "delta_lambda", "prediction", "hyp"]
        + ["hyp-" + b for b in BACKENDS],
    )
    def test_empty_type_refused(self, entry):
        with pytest.raises(ValueError, match="need weight >= 1"):
            entry(())

    def test_disagreement_message(self):
        exc = BackendDisagreement(
            (1, 2), {"cells": sphere_homology(1), "delta": sphere_homology(2)}
        )
        assert "cells" in str(exc) and "delta" in str(exc)


class TestHookPrediction:
    def test_residue_one(self):
        p = hook_prediction(5, 2)
        assert p.kind == "sphere" and p.dimension == 4

    def test_residue_zero(self):
        p = hook_prediction(6, 2)
        assert p.kind == "sphere" and p.dimension == 5

    def test_other_residue(self):
        p = hook_prediction(7, 4)
        assert p.kind == "point"
        assert p.homology() == HomologyResult.of({})

    def test_range_validation(self):
        with pytest.raises(ValueError):
            hook_prediction(3, 1)
        with pytest.raises(ValueError):
            hook_prediction(3, 4)

    @pytest.mark.parametrize(
        "n,k", [(n, k) for n in range(2, 9) for k in range(2, n + 1)]
    )
    def test_prediction_matches_computation(self, n, k):
        partition = (1,) * (n - k) + (k,)
        computed = hyp_homology(partition, "cells")
        assert hook_prediction(n, k).matches(computed)


class TestResonanceFreePrediction:
    def test_distinct_parts(self):
        p = resonance_free_prediction((1, 2, 4))
        assert p.kind == "sphere" and p.dimension == 3

    def test_repeated_part(self):
        p = resonance_free_prediction((3, 3))
        assert p.kind == "point"

    def test_resonant_gives_none(self):
        p = resonance_free_prediction((1, 2, 3))
        assert p.kind == "none"
        with pytest.raises(ValueError):
            p.homology()
        assert not p.matches(sphere_homology(3))

    def test_prediction_matches_computation(self):
        for partition in [(1, 2), (1, 2, 4), (2, 2), (1, 1, 3), (2, 3)]:
            p = resonance_free_prediction(partition)
            assert p.matches(hyp_homology(partition, "cells"))

    def test_resonant_case_deviates_from_both_shapes(self):
        # (1, 2, 3) is the smallest resonant type; neither sphere nor point
        computed = hyp_homology((1, 2, 3))
        assert computed != sphere_homology(3)
        assert not computed.is_zero
