"""Centroid pairing: cosine similarities, greedy vs optimal matching, and
multi-round expansion of the auxiliary class selection.
"""
import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from xmixup.dataset import Dataset, Domain, gen_source
from xmixup.errors import DataError, NumericError, ParseError
from xmixup.model import forward, init
from xmixup.pairing import (
    PairingPlan,
    SimilarityMatrix,
    compute_centroids,
    expand_until_threshold,
    greedy_pair,
    load_plan,
    optimal_pair,
    save_plan,
    similarity,
)

# Greedy is not optimal: taking 0.90 first forces the 0.10 cell, while the
# optimum pairs the off-diagonal for 0.85 + 0.80.
COUNTEREXAMPLE = np.array([[0.90, 0.85], [0.80, 0.10]])


def brute_best(sims: np.ndarray) -> float:
    rows, cols = linear_sum_assignment(-sims)
    return float(sims[rows, cols].sum())


class TestCentroids:
    def test_matches_manual_feature_means(self, toy_source, toy_pretrained):
        centroids = compute_centroids(toy_source, toy_pretrained)
        feats, _ = forward(toy_pretrained, toy_source.X)
        labels = toy_source.y
        assert centroids.shape == (
            toy_source.class_count, toy_pretrained.feature_width
        )
        for c in range(toy_source.class_count):
            manual = feats[labels == c].mean(axis=0)
            assert np.allclose(centroids[c], manual, atol=1e-12)

    def test_empty_class_is_an_error(self, toy_pretrained):
        ds = Dataset([np.zeros(4), np.ones(4)], [0, 0], 2, Domain.SOURCE)
        with pytest.raises(DataError, match="class 1 has no samples"):
            compute_centroids(ds, toy_pretrained)


class TestSimilarity:
    def test_cosine_formula(self, toy_source, toy_target, toy_pretrained):
        tgt, _ = toy_target
        src_c = compute_centroids(toy_source, toy_pretrained)
        tgt_c = compute_centroids(tgt, toy_pretrained)
        sm = similarity(src_c, tgt_c)
        assert sm.sims.shape == (tgt.class_count, toy_source.class_count)
        for t in range(tgt.class_count):
            for s in range(toy_source.class_count):
                a, b = tgt_c[t], src_c[s]
                want = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
                assert sm.sims[t, s] == pytest.approx(want, abs=1e-12)
        assert np.all(np.abs(sm.sims) <= 1 + 1e-12)

    def test_zero_norm_centroid_is_numeric_error(self, toy_source):
        # untrained relu nets can zero out a class; the error must name it
        dead = init(4, [6, 5], 3, seed=0)
        for w, b in dead.layers:
            w[:] = 0.0
        with pytest.raises(NumericError, match="target class 0 has a zero-norm"):
            compute_centroids_and_sim(toy_source, dead)
        # a zero row among non-zero ones is named by its class
        centroids = np.eye(3)
        centroids[1] = 0.0
        with pytest.raises(NumericError, match="^source class 1 has a zero-norm"):
            similarity(centroids, np.eye(3))
        with pytest.raises(ValueError):  # widths differ
            similarity(np.eye(3), np.eye(3, 4))

    def test_matrix_validation(self):
        for bad in (1.5, np.nan):
            with pytest.raises(ValueError):
                SimilarityMatrix(np.array([[bad, 0.0]]))
        sm = SimilarityMatrix(np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert (sm.n, sm.m) == (2, 2)


def compute_centroids_and_sim(ds, params):
    centroids = compute_centroids(ds, params)
    return similarity(centroids, centroids)


class TestGreedy:
    def test_counterexample_reproduces_exactly(self):
        sm = SimilarityMatrix(COUNTEREXAMPLE)
        greedy = greedy_pair(sm)
        optimal = optimal_pair(sm)
        assert greedy == {0: 0, 1: 1}
        assert optimal == {0: 1, 1: 0}
        g = sum(COUNTEREXAMPLE[t, s] for t, s in greedy.items())
        o = sum(COUNTEREXAMPLE[t, s] for t, s in optimal.items())
        assert g == pytest.approx(1.00)
        assert o == pytest.approx(1.65)

    def test_never_beats_exhaustive_optimum(self):
        rng = np.random.default_rng(40)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(n, 8))
            sims = rng.uniform(-1, 1, size=(n, m))
            sm = SimilarityMatrix(sims)
            g = sum(sims[t, s] for t, s in greedy_pair(sm).items())
            assert g <= brute_best(sims) + 1e-12

    def test_diagonal_dominance_makes_greedy_optimal(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(n, 8))
            sims = rng.uniform(-1.0, 0.0, size=(n, m))
            for i in range(n):
                sims[i, i] = 0.5 + 0.5 * rng.random()
            sm = SimilarityMatrix(sims)
            assert greedy_pair(sm) == {i: i for i in range(n)}
            assert sum(sims[t, s] for t, s in greedy_pair(sm).items()) == (
                pytest.approx(brute_best(sims))
            )

    def test_tie_break_prefers_lowest_indices(self):
        sims = np.full((2, 3), 0.25)
        assert greedy_pair(SimilarityMatrix(sims)) == {0: 0, 1: 1}

    def test_each_target_gets_a_distinct_source(self):
        rng = np.random.default_rng(42)
        sims = rng.uniform(-1, 1, size=(4, 6))
        pairs = greedy_pair(SimilarityMatrix(sims))
        assert sorted(pairs) == [0, 1, 2, 3]
        assert len(set(pairs.values())) == 4

    def test_more_targets_than_sources_is_an_error(self):
        with pytest.raises(ValueError):
            greedy_pair(SimilarityMatrix(np.zeros((3, 2))))


class TestOptimal:
    def test_matches_assignment_solver(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(n, 7))
            sims = rng.uniform(-1, 1, size=(n, m))
            best = optimal_pair(SimilarityMatrix(sims))
            total = sum(sims[t, s] for t, s in best.items())
            assert total == pytest.approx(brute_best(sims), abs=1e-12)

    def test_refuses_large_instances(self):
        with pytest.raises(ValueError):
            optimal_pair(SimilarityMatrix(np.zeros((9, 12))))

    def test_refuses_more_permutations_than_it_holds(self):
        with pytest.raises(ValueError, match="permutations"):
            optimal_pair(SimilarityMatrix(np.zeros((8, 12))))  # 19958400
        assert optimal_pair(SimilarityMatrix(np.zeros((6, 12)))) == {
            t: t for t in range(6)
        }

    def test_matches_the_permutation_loop_on_random_and_tied_matrices(self):
        """The array scoring against the loop it replaced: totals summed in
        target order, first maximum in permutation order kept."""

        def loop_optimum(sims):
            best_total, best = -np.inf, None
            for perm in itertools.permutations(range(sims.shape[1]), sims.shape[0]):
                total = sum(sims[t, s] for t, s in enumerate(perm))
                if total > best_total:
                    best_total, best = total, perm
            return dict(enumerate(best))

        rng = np.random.default_rng(44)
        for trial in range(200):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(n, 9))
            if trial % 2:
                sims = rng.uniform(-1, 1, size=(n, m))
            else:  # few distinct values: many permutations tie
                sims = rng.choice([-0.5, 0.0, 0.1, 0.2, 0.3], size=(n, m))
            assert optimal_pair(SimilarityMatrix(sims)) == loop_optimum(sims)
        ties = SimilarityMatrix(np.full((3, 5), 0.25))
        assert optimal_pair(ties) == {0: 0, 1: 1, 2: 2}


class TestExpansion:
    SIMS = np.array([[0.9, 0.2, 0.5, 0.1], [0.8, 0.7, 0.3, 0.6]])
    SIZES = {0: 10, 1: 10, 2: 10, 3: 10}

    def test_hand_traced_two_rounds(self):
        # round 1 matches (t0,s0) then (t1,s1) for 20 samples; still short of
        # 30, so round 2 matches (t1,s3)=0.6 and (t0,s2)=0.5 and stops at 40
        plan = expand_until_threshold(SimilarityMatrix(self.SIMS), self.SIZES, 30)
        assert plan.n_rounds == 2
        assert plan.per_target == {0: [0, 2], 1: [1, 3]}
        assert plan.round_map(1) == {0: 0, 1: 1}
        assert plan.round_map(2) == {0: 2, 1: 3}
        assert plan.scores[0] == [0.9, 0.5]
        assert plan.scores[1] == [0.7, 0.6]
        assert plan.selected_sources() == [0, 1, 2, 3]
        assert plan.exhausted  # all four source classes are now in use

    def test_threshold_zero_still_runs_one_round(self):
        plan = expand_until_threshold(SimilarityMatrix(self.SIMS), self.SIZES, 0)
        assert plan.n_rounds == 1
        assert plan.per_target == {0: [0], 1: [1]}
        assert not plan.exhausted

    def test_stops_short_when_sources_run_out(self):
        plan = expand_until_threshold(SimilarityMatrix(self.SIMS), self.SIZES, 10_000)
        assert plan.exhausted
        assert plan.selected_sources() == [0, 1, 2, 3]

    def test_partial_final_round_covers_some_targets(self):
        sims = SimilarityMatrix(self.SIMS[:, :3])   # 2 targets, 3 sources
        plan = expand_until_threshold(sims, {0: 10, 1: 10, 2: 10}, 25)
        assert plan.n_rounds == 2
        assert sorted(len(v) for v in plan.per_target.values()) == [1, 2]
        assert plan.exhausted

    def test_input_validation(self):
        sm = SimilarityMatrix(self.SIMS)
        with pytest.raises(ValueError):
            expand_until_threshold(sm, self.SIZES, -1)
        with pytest.raises(ValueError):
            expand_until_threshold(sm, {0: 10}, 5)
        with pytest.raises(ValueError):
            expand_until_threshold(SimilarityMatrix(self.SIMS.T), self.SIZES, 5)


class TestPlanRoundTrip:
    def test_save_load_preserves_structure(self, tmp_path, toy_plan):
        path = tmp_path / "plan.csv"
        for exhausted in (False, True):
            plan = PairingPlan(
                toy_plan.per_target, toy_plan.scores, toy_plan.n_rounds, exhausted
            )
            save_plan(plan, path)
            back = load_plan(path)
            assert back.per_target == plan.per_target
            assert back.n_rounds == plan.n_rounds
            for t in plan.per_target:
                assert np.allclose(back.scores[t], plan.scores[t], atol=0)
            assert back.exhausted is exhausted

    def test_load_rejects_malformed_files(self, tmp_path):
        head = "exhausted,false\nround,target_class,source_class,similarity\n"
        cases = {
            "nope\n": ParseError,
            "round,target_class,source_class,similarity\n1,0,0,0.5\n": ParseError,
            "exhausted,maybe\nround,target_class,source_class,similarity\n": ParseError,
            "exhausted,true\nnope\n": ParseError,
            "exhausted,true\n": ParseError,
            head + "1,2\n": ParseError,
            head + "1,a,0,0.5\n": ParseError,
            head: DataError,
            head + "2,0,1,0.5\n": ParseError,
            head + "1,0,0,nan\n": ParseError,
            head + "1,0,0,-inf\n": ParseError,
        }
        for text, err in cases.items():
            path = tmp_path / "plan.csv"
            path.write_text(text)
            with pytest.raises(err):
                load_plan(path)

    def test_load_names_the_file_and_the_line(self, tmp_path):
        path = tmp_path / "plan.csv"
        path.write_text(
            "exhausted,false\nround,target_class,source_class,similarity\n"
            "1,0,2,0.5\n1,x,3,0.4\n"
        )
        with pytest.raises(ParseError) as exc:
            load_plan(path)
        assert str(exc.value) == f"{path}: line 4: non-numeric plan entry"
        assert exc.value.line == 4

    def test_plan_rejects_repeated_source_within_round(self):
        with pytest.raises(ValueError):
            PairingPlan({0: [2], 1: [2]}, {0: [0.5], 1: [0.5]}, 1, False)


def test_planted_structure_is_recovered(toy_source, toy_target, toy_pretrained):
    """Round-1 greedy pairing on clean copies finds the planted mapping."""
    tgt, planted = toy_target
    sims = similarity(
        compute_centroids(toy_source, toy_pretrained),
        compute_centroids(tgt, toy_pretrained),
    )
    first = greedy_pair(sims)
    for t, s in planted.mapping.items():
        if s is not None:
            assert first[t] == s


def test_expansion_on_generated_data_hits_threshold(toy_pretrained):
    src = gen_source(6, 10, 4, 0.5, seed=8)
    centroids = compute_centroids(src, toy_pretrained)
    plan = expand_until_threshold(
        similarity(centroids, centroids), src.class_sizes(), 35
    )
    total = sum(10 for _ in plan.selected_sources())
    assert total >= 35
    assert plan.n_rounds >= 1
