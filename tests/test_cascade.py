"""Branching-measure bookkeeping against a materialized trie oracle."""

import math
import random
from fractions import Fraction
from itertools import product as iter_product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfraj import cascade, numeric
from cfraj.blocks import NuMeasure, build_nu
from cfraj.cascade import (
    LambdaMeasure,
    PathState,
    _draw_indices,
    _sample_columns,
    build_lambda,
    classify,
    cylinder_mass,
    lemma2_check,
    max_phi_over_stage,
    sample_path,
    scale_index,
    split_typ_exc,
    weight_ratio_bound,
    xn_mass,
)
from cfraj.errors import (
    BudgetExceeded,
    DepthExceeded,
    OutOfRange,
    Overflow,
    PreconditionViolated,
)
from cfraj.fourier import _lambda_leaves
from cfraj.numeric import guard_int
from cfraj.rules import AssignmentRule, PsiFamily, forced_extension, rho_value
from cfraj.schedule import Schedule, check_gap_condition, weight
from cfraj.words import Word, continuant


def nu_digits45():
    # p=1 alphabet {4, 5}, sigma = log 5
    return build_nu(5, 1, None, Fraction(3, 10), sigma_anchor=(5, 1))


def toy_lambda(depth_i=(2, 4, 7, 11), runs=(1, 1, 1, 1), horizon=13):
    nu = nu_digits45()
    sch = Schedule(
        i=depth_i, r=runs, p=1, sigma=nu.sigma,
        rule=AssignmentRule.sum_of_previous(),
    )
    return build_lambda(nu, sch, horizon)


# ------------------------------------------------------------ trie oracle


def oracle_paths(nu, i_list, r_list, depth):
    """All depth-block paths with exact masses and label chains.

    Independent bookkeeping: top halves are materialized by a literal
    greedy scan over lexicographically sorted segments, forced digits
    recomputed as running digit sums (sum-of-previous rule, p = 1).
    """
    digits_alphabet = [b[0] for b in nu.support]
    s = len(digits_alphabet)
    out = {}

    def top_half_set(g):
        segs = sorted(iter_product(range(s), repeat=g))
        atom = Fraction(1, s**g)
        acc, cut = Fraction(0), 0
        while acc < Fraction(1, 2) - atom / 2:
            acc += atom
            cut += 1
        return set(segs[:cut])

    def gen(digits, label, chain, seg, b, mass):
        if b == depth:
            out[digits] = (mass, chain)
            return
        if label <= len(i_list) and b == i_list[label - 1]:
            child = 2 * label + (0 if seg in top_half_set(len(seg)) else 1)
            nd = digits
            for _ in range(r_list[label - 1]):
                nd = nd + (max(1, sum(nd)),)
            nd = nd[:depth]
            gen(nd, child, chain + (child,), (), len(nd), mass)
            return
        for k, d in enumerate(digits_alphabet):
            gen(digits + (d,), label, chain, seg + (k,), b + 1,
                mass * Fraction(1, s))

    gen((), 1, (1,), (), 0, Fraction(1))
    return out


def test_walker_matches_trie_oracle():
    lm = toy_lambda()
    oracle = oracle_paths(lm.nu, lm.schedule.i, lm.schedule.r, 13)
    # 256 leaves through label 4 (three runs), 512 each through 5, 6, 7
    assert len(oracle) == 1792
    assert sum(m for m, _ in oracle.values()) == 1
    for digits, (mass, chain) in oracle.items():
        blocks = [(d,) for d in digits]
        state = classify(lm, blocks)
        assert state.valid
        assert state.mass == mass
        assert state.chain == chain
        assert cylinder_mass(lm, blocks) == mass


def test_xn_mass_matches_oracle_aggregates():
    lm = toy_lambda()
    oracle = oracle_paths(lm.nu, lm.schedule.i, lm.schedule.r, 13)
    for n in range(2, 10):
        agg = sum(m for m, chain in oracle.values() if n in chain)
        assert xn_mass(lm, n) == agg
        # every stage fraction is exactly 1/2 here (s = 2), so the mass
        # law collapses to the dyadic weights
        assert xn_mass(lm, n) == weight(n)
        assert weight_ratio_bound(lm, n) == 0


def test_xn_mass_recursion_and_bounds():
    lm = toy_lambda()
    assert xn_mass(lm, 1) == 1
    for n in range(1, 5):
        assert xn_mass(lm, n) == xn_mass(lm, 2 * n) + xn_mass(lm, 2 * n + 1)
    assert xn_mass(lm, 2) + xn_mass(lm, 3) == 1
    with pytest.raises(DepthExceeded):
        xn_mass(lm, 2 * lm.schedule.depth + 2)
    with pytest.raises(PreconditionViolated):
        xn_mass(lm, 0)


def test_stage_prefix_sets_are_disjoint():
    # no stage-2 prefix is an initial segment of a stage-3 prefix
    lm = toy_lambda()
    oracle = oracle_paths(lm.nu, lm.schedule.i, lm.schedule.r, 13)
    x2 = {d[:4] for d, (_, c) in oracle.items() if 2 in c}
    x3 = {d[:7] for d, (_, c) in oracle.items() if 3 in c}
    assert x2 and x3
    assert all(p3[:4] not in x2 for p3 in x3)
    # nesting: generation-3 carriers sit inside their parent's carrier set
    x4 = {d[:11] for d, (_, c) in oracle.items() if 4 in c}
    assert all(p4[:4] in x2 for p4 in x4)


def test_children_sum_to_parent():
    lm = toy_lambda()
    # typical position
    prefix = [(4,)]
    total = sum(cylinder_mass(lm, prefix + [b]) for b in lm.nu.support)
    assert total == cylinder_mass(lm, prefix)
    # stage boundary: only the forced digit carries the mass
    at_stage = [(4,), (5,)]
    parent = cylinder_mass(lm, at_stage)
    assert parent == Fraction(1, 4)
    forced = [(9,)]  # 4 + 5
    assert cylinder_mass(lm, at_stage + forced) == parent
    assert cylinder_mass(lm, at_stage + [(4,)]) == 0
    assert cylinder_mass(lm, at_stage + [(5,)]) == 0


def test_classify_labels_at_exact_stage_length():
    lm = toy_lambda()
    # length i_1: still label 1, not yet refined
    assert classify(lm, [(4,), (4,)]).label == 1
    # one block later the chain shows the child
    st = classify(lm, [(4,), (4,), (8,)])
    assert st.chain == (1, 2)  # (4,4) ranks in the top half
    st = classify(lm, [(5,), (5,), (10,)])
    assert st.chain == (1, 3)
    with pytest.raises(DepthExceeded):
        classify(lm, [(4,)] * 14)


def test_invalid_prefixes_have_zero_mass():
    lm = toy_lambda()
    assert cylinder_mass(lm, [(2,)]) == 0  # off-support digit
    st = classify(lm, [(4,), (4,), (7,)])  # forced digit is 8
    assert not st.valid and st.mass == 0


# ------------------------------------------------------------ sampling


def test_sample_path_deterministic_and_forced():
    lm = toy_lambda()
    a = sample_path(lm, 5, seed=42)
    assert a == sample_path(lm, 5, seed=42)
    for seed in range(30):
        path = sample_path(lm, 4, seed=seed)
        w = Word(0, tuple(d for (d,) in path[:2]))
        assert path[2] == forced_extension(lm.rule, w, 1).tail[-1:]
    with pytest.raises(DepthExceeded):
        sample_path(lm, 14, seed=0)
    assert sample_path(lm, 0, seed=0) == []
    with pytest.raises(PreconditionViolated, match="depth must be >= 0"):
        sample_path(lm, -1, seed=0)


STREAM_SIZES = [2, 3, 5, 190, 2**20 + 1, 2**31, 2**32 - 1]


@settings(max_examples=60, deadline=None)
@given(s=st.sampled_from(STREAM_SIZES), seed=st.integers(0, 2**64),
       pieces=st.lists(st.integers(0, 700), max_size=12),
       chunk=st.sampled_from([1, 5, 64, cascade._STREAM_CHUNK]))
def test_index_stream_replays_randrange(s, seed, pieces, chunk):
    n = sum(pieces)
    ref = random.Random(seed)
    want = [ref.randrange(s) for _ in range(n)]
    # consecutive draws on one generator continue one randrange stream
    rng = random.Random(seed)
    got = []
    with mock.patch.object(cascade, "_STREAM_CHUNK", chunk):
        for k in pieces:
            more = _draw_indices(rng, s, k)
            assert len(more) >= k
            assert more.dtype == np.min_scalar_type(s - 1)
            got += more.tolist()
    assert got[:n] == want
    assert got[n:] == [ref.randrange(s) for _ in range(len(got) - n)]


@pytest.mark.parametrize("s", STREAM_SIZES)
def test_index_stream_replays_randrange_past_refills(s):
    # 5,000 indices with a chunk of 97 words: dozens of reads
    seed = 5000 + s
    ref = random.Random(seed)
    rng = random.Random(seed)
    with mock.patch.object(cascade, "_STREAM_CHUNK", 97):
        got = [x for k in (1, 2999, 2000)
               for x in _draw_indices(rng, s, k).tolist()]
    assert len(got) >= 5000
    assert got == [ref.randrange(s) for _ in range(len(got))]


def test_index_stream_rejects_wide_draws():
    with pytest.raises(PreconditionViolated):
        _draw_indices(random.Random(0), 2**32, 1)


def _reference_walk(lm, depth, rng):
    """The per-block sampler: one rng.randrange per typical block.

    Returns the blocks, the label chain and the convergent columns
    pn, pp, q, qp rebuilt from the blocks.
    """
    nu, sch = lm.nu, lm.schedule
    p, sdepth = sch.p, sch.depth
    s = len(nu.support)
    out = []
    label, chain = 1, [1]
    seg_rank = 0
    q, qp = 1, 0
    dsum = 0
    b = 0
    while b < depth:
        if label <= sdepth and b == sch.i[label - 1]:
            split = lm.stage_split(label)
            child = 2 * label + (0 if seg_rank < split.count else 1)
            chain.append(child)
            run_end = b + sch.r[label - 1]
            label = child
            while b < run_end and b < depth:
                digits = []
                for _ in range(p):
                    d = rho_value(lm.rule, q, dsum)
                    digits.append(d)
                    q, qp = d * q + qp, q
                    dsum += d
                guard_int(q, "forced-run continuant")
                out.append(tuple(digits))
                b += 1
            if b < run_end:
                break
            seg_rank = 0
            continue
        blk = nu.support[rng.randrange(s)]
        out.append(blk)
        seg_rank = seg_rank * s + nu.block_index(blk)
        for d in blk:
            q, qp = d * q + qp, q
            dsum += d
        b += 1
    q, qp, pn, pp = 1, 0, 0, 1
    for blk in out:
        for d in blk:
            q, qp = d * q + qp, q
            pn, pp = d * pn + pp, pn
    return out, tuple(chain), pn, pp, q, qp


def test_sampler_frequency_matches_mass():
    lm = toy_lambda()
    target = [(4,), (5,), (9,)]
    p = cylinder_mass(lm, target)
    assert p == Fraction(1, 4)
    trials = 20000
    hits = sum(
        sample_path(lm, 3, seed=1000 + k) == target for k in range(trials)
    )
    sd = math.sqrt(float(p) * (1 - float(p)) * trials)
    assert abs(hits - float(p) * trials) <= 4 * sd


# ------------------------------------------------------------ scales


def test_scale_index_values():
    lm = toy_lambda()
    sigma = lm.schedule.sigma
    alpha = Fraction(50, 358)
    for i_target, n_expect in ((0, 1), (3, 1), (5, 2), (8, 3), (12, 4)):
        xi = math.exp((i_target + 0.5) * sigma / float(alpha))
        i_val, n = scale_index(lm, xi)
        assert (i_val, n) == (i_target, n_expect)
    with pytest.raises(PreconditionViolated):
        scale_index(lm, 1.0)
    with pytest.raises(OutOfRange):
        scale_index(lm, math.exp(20 * sigma / float(alpha)))


def test_scale_index_formula_example():
    # sigma = 2 exactly; alpha log(xi) / sigma just above 5
    nu = build_nu(3, 2, 2.0, Fraction(3, 10))
    sch = Schedule(
        i=(2, 4), r=(1, 1), p=2, sigma=2.0,
        rule=AssignmentRule.sum_of_previous(),
    )
    lm = build_lambda(nu, sch, 30)
    i_val, n = scale_index(lm, math.exp(71.8), alpha=Fraction(50, 358))
    assert i_val == 5
    assert n == 2


def test_scale_index_accepts_exact_arguments():
    lm = toy_lambda()
    i_float, _ = scale_index(lm, 10**30)
    i_exact, _ = scale_index(lm, Fraction(10**30))
    assert i_float == i_exact


# ------------------------------------------------------------ typ/exc


def test_split_three_term_sum_at_dyadic_boundary():
    lm = toy_lambda()
    sigma = lm.schedule.sigma
    xi = math.exp(12.5 * sigma / float(Fraction(50, 358)))
    split = split_typ_exc(lm, xi)
    assert split.n_index == 4
    assert split.exc_labels == frozenset({3, 4, 5})
    assert split.exc_mass == xn_mass(lm, 3) + xn_mass(lm, 4) + xn_mass(lm, 5)
    assert split.exc_mass == 1  # labels 4, 5 exhaust label 2; plus label 3
    assert split.exc_mass + split.typ_mass == 1


def test_split_ancestor_filtering_small_n():
    lm = toy_lambda()
    sigma = lm.schedule.sigma
    xi = math.exp(9.5 * sigma / float(Fraction(50, 358)))
    split = split_typ_exc(lm, xi)
    assert split.n_index == 3
    # label 4 is dominated by its ancestor 2; the union is labels 2, 3
    assert split.exc_labels == frozenset({2, 3})
    assert split.exc_mass == 1


def test_split_nontrivial_mass_and_bound():
    lm = toy_lambda(depth_i=(2, 4, 7, 11, 16), runs=(1,) * 5, horizon=18)
    sigma = lm.schedule.sigma
    xi = math.exp(17.2 * sigma / float(Fraction(50, 358)))
    split = split_typ_exc(lm, xi)
    assert split.n_index == 5
    assert split.exc_labels == frozenset({4, 5, 6})
    assert split.exc_mass == Fraction(3, 4)
    assert split.typ_mass == Fraction(1, 4)
    n = split.n_index
    assert split.exc_mass <= Fraction(6, n - 1)
    assert split.exc_mass <= 2 * (weight(n - 1) + weight(n) + weight(n + 1))
    # the typ handle: chains through 4 are exceptional, through 7 are not
    assert split.is_exceptional((1, 2, 4))
    assert split.is_exceptional((1, 3, 6, 12))
    assert not split.is_exceptional((1, 3, 7, 14))


# ------------------------------------------------------------ stage maxima


def test_max_phi_over_stage_one_by_hand():
    lm = toy_lambda()
    # all four length-2 words, one forced digit appended to each:
    # (4,4)->8*17+4, (4,5)->9*21+4, (5,4)->9*21+5, (5,5)->10*26+5
    got = max_phi_over_stage(lm.nu, lm.schedule, lm.rule, 1)
    assert got == 265
    with pytest.raises(BudgetExceeded):
        max_phi_over_stage(lm.nu, lm.schedule, lm.rule, 3, budget=4)
    with pytest.raises(PreconditionViolated):
        max_phi_over_stage(lm.nu, lm.schedule, lm.rule, 9)


def test_max_phi_over_stage_two_by_hand():
    lm = toy_lambda()
    best = 0
    for b1 in (4, 5):
        for b3 in (4, 5):
            digits = (4, b1)
            digits = digits + (sum(digits),)  # forced at block 2
            digits = digits + (b3,)
            q = continuant(digits)
            phi = sum(digits) * q + continuant(digits[:-1])
            best = max(best, phi)
    assert max_phi_over_stage(lm.nu, lm.schedule, lm.rule, 2) == best


@pytest.mark.parametrize("make,want", [
    (lambda: toy_lambda(), [265, 22871, 7607451, 24949575019]),
    (lambda: a10_lambda(),
     [63, 1571, 174907, 4367904265, 5254586102600]),
    (lambda: stage2_lambda(), [178101836434053]),
    (lambda: psi_gate_lambda(), [681, 5044961, 8576815157]),
])
def test_max_phi_over_stage_values_are_pinned(make, want):
    # the stage maxima of the earlier recursive walk
    lm = make()
    assert [max_phi_over_stage(lm.nu, lm.schedule, lm.rule, n)
            for n in range(1, len(want) + 1)] == want


def test_enumeration_checks_its_budget_before_any_arithmetic(monkeypatch):
    lm = toy_lambda()
    n = len(_lambda_leaves(lm, 13))
    assert n == 1792
    assert len(_lambda_leaves(lm, 13, budget=n)) == n
    with pytest.raises(BudgetExceeded, match="1792 cylinders"):
        _lambda_leaves(lm, 13, budget=n - 1)
    # at 2 digits the first forced block overflows; the count comes first
    monkeypatch.setattr(numeric, "_digit_budget", 2)
    with pytest.raises(BudgetExceeded):
        _lambda_leaves(lm, 13, budget=10)


def spy_forced_digits(monkeypatch) -> list:
    """The (q, digit sum) of each rho_value call, one list per
    _forced_run call."""
    runs = []
    forced_run = cascade._forced_run

    def run_spy(*args):
        runs.append([])
        return forced_run(*args)

    def rho_spy(rule, q, dsum):
        runs[-1].append((q, dsum))
        return rho_value(rule, q, dsum)

    monkeypatch.setattr(cascade, "_forced_run", run_spy)
    monkeypatch.setattr(cascade, "rho_value", rho_spy)
    return runs


def test_forced_runs_compute_each_state_once(monkeypatch):
    """Under the sum-of-previous rule a forced digit depends on its
    path's digit sum only, so each run computes it once per distinct
    digit sum: 40 calls, not one per distinct (q, digit sum) pair (168)
    or per path below the stage (3,840)."""
    runs = spy_forced_digits(monkeypatch)
    assert len(_lambda_leaves(toy_lambda(), 13)) == 1792
    assert all(len({dsum for _, dsum in run}) == len(run) for run in runs)
    assert sum(map(len, runs)) == 40


def test_psi_forced_runs_key_on_the_continuant(monkeypatch):
    """Under a psi rule a forced digit depends on q only: each run
    computes it once per distinct q."""
    runs = spy_forced_digits(monkeypatch)
    assert len(_lambda_leaves(psi_gate_lambda(), 8)) == 64
    assert all(len({q for q, _ in run}) == len(run) for run in runs)
    assert sum(map(len, runs)) == 24


def test_gap_condition_exhaustive_vs_certified():
    # certified composes worst-case growth and can reject a schedule the
    # literal stage maximum accepts
    nu = nu_digits45()
    rule = AssignmentRule.psi_power(Fraction(5, 2))
    sch = Schedule(i=(2, 5, 40), r=(1, 1, 1), p=1, sigma=nu.sigma, rule=rule)
    assert not check_gap_condition(sch, nu, mode="certified").ok
    rep = check_gap_condition(sch, nu, mode="exhaustive")
    assert rep.ok
    # max phi over the four length-2 words: ceil(sqrt q) appended
    assert max_phi_over_stage(nu, sch, rule, 1) == 161
    assert rep.margins[0] == pytest.approx(
        35.0 - (10.0 / nu.sigma) * math.log(161), rel=1e-12
    )
    wide = Schedule(i=(2, 5, 70), r=(1, 1, 1), p=1, sigma=nu.sigma, rule=rule)
    assert check_gap_condition(wide, nu, mode="certified").ok
    assert check_gap_condition(wide, nu, mode="exhaustive").ok


# ------------------------------------------------------------ lemma margins


def lemma_lm(i_list, r_list, horizon):
    nu = nu_digits45()
    sch = Schedule(
        i=i_list, r=r_list, p=1, sigma=nu.sigma,
        rule=AssignmentRule.sum_of_previous(),
    )
    return build_lambda(nu, sch, horizon)


def build_typical_prefix(length):
    """Chain (1, 2, 5) path for the (8, 12, 16, 48) schedule."""
    digits = []
    for b in range(length):
        if b in (8, 12):
            digits.append(sum(digits))
        elif b == 9:
            digits.append(5)
        else:
            digits.append(4)
    return [(d,) for d in digits]


def test_lemma2_typical_prefix_passes():
    lm = lemma_lm((8, 12, 16, 48), (1, 1, 1, 1), 64)
    prefix = build_typical_prefix(52)
    rep = lemma2_check(lm, prefix, beta_prime=Fraction(35, 100))
    assert rep.ok and bool(rep)
    assert rep.n_index == 4
    assert rep.chain == (1, 2, 5)
    sigma = lm.schedule.sigma
    q = continuant([d for (d,) in prefix])
    assert rep.window_margin == pytest.approx(
        0.25 * 52 * sigma - abs(math.log(q) - 52 * sigma), rel=1e-9
    )
    assert rep.mass_margin == pytest.approx(
        -0.33 * 52 * sigma + 50 * math.log(2), rel=1e-9
    )
    assert rep.mass_margin > 5.0


def test_lemma2_rejects_stage_set_members():
    lm = lemma_lm((8, 12, 16, 48), (1, 1, 1, 1), 64)
    # flip block 9 to (4,): the stage-2 segment now ranks top half,
    # sending the path through label 4
    prefix = build_typical_prefix(48)
    prefix[9] = (4,)
    prefix[12] = (prefix[12][0] - 1,)  # digit sum shrank by 1
    state = classify(lm, prefix)
    assert state.valid and 4 in state.chain
    with pytest.raises(PreconditionViolated):
        lemma2_check(lm, prefix, beta_prime=Fraction(35, 100))


def test_lemma2_rejects_zero_mass_and_small_scales():
    lm = lemma_lm((8, 12, 16, 48), (1, 1, 1, 1), 64)
    bad = build_typical_prefix(52)
    bad[8] = (bad[8][0] + 1,)  # break the forced digit
    with pytest.raises(PreconditionViolated):
        lemma2_check(lm, bad, beta_prime=Fraction(35, 100))
    # at scales 1..3 the excluded stage sets cover everything
    with pytest.raises(PreconditionViolated):
        lemma2_check(lm, build_typical_prefix(13), beta_prime=Fraction(35, 100))


def test_lemma2_dense_runs_fail_mass_check():
    # same alphabet, but forced runs crowd the prefix: 8 typical blocks
    # out of 12 cannot sustain the required mass slope
    lm = lemma_lm((2, 5, 8, 12), (2, 2, 2, 2), 20)
    digits = [4, 4]
    digits += [sum(digits)]              # 8
    digits += [sum(digits)]              # 16
    digits += [5]
    digits += [sum(digits)]              # 37
    digits += [sum(digits)]              # 74
    digits += [4] * 5
    prefix = [(d,) for d in digits]
    state = classify(lm, prefix)
    assert state.valid and state.chain == (1, 2, 5)
    rep = lemma2_check(lm, prefix, beta_prime=Fraction(35, 100))
    assert not rep.ok
    assert rep.mass_margin < -0.1
    assert rep.mass_margin == pytest.approx(
        -0.33 * 12 * lm.schedule.sigma + 8 * math.log(2), rel=1e-9
    )


# ------------------------------------------------------------ stage-2 config


def stage2_lambda():
    nu = build_nu(3, 2, None, Fraction(3, 10), sigma_anchor=(5, 1))
    sch = Schedule(
        i=(4, 96), r=(1, 2), p=2, sigma=nu.sigma,
        rule=AssignmentRule.psi_power(3),
    )
    return build_lambda(nu, sch, 98)


def test_two_stage_fractions_exact():
    lm = stage2_lambda()
    assert lm.segment_length(1) == 4
    assert lm.segment_length(2) == 91
    assert lm.stage_fraction(1) == Fraction(312, 625)
    assert lm.stage_fraction(2) == Fraction(1, 2) - Fraction(1, 2 * 5**91)
    assert xn_mass(lm, 2) == Fraction(312, 625)
    assert xn_mass(lm, 3) == Fraction(313, 625)
    t1, t2 = lm.stage_fraction(1), lm.stage_fraction(2)
    assert xn_mass(lm, 4) == t1 * t2
    assert xn_mass(lm, 5) == t1 * (1 - t2)
    for n in range(2, 6):
        assert weight_ratio_bound(lm, n) <= Fraction(1, 2)  # 8 * 2^-i1


def test_two_stage_forced_block_matches_rule():
    lm = stage2_lambda()
    prefix = [(1, 3), (2, 2), (3, 1), (2, 3)]
    parent = cylinder_mass(lm, prefix)
    assert parent == Fraction(1, 625)
    w = Word(0, tuple(d for blk in prefix for d in blk))
    ext = forced_extension(lm.rule, w, 2)
    forced_block = ext.tail[-2:]
    assert cylinder_mass(lm, prefix + [forced_block]) == parent
    assert cylinder_mass(lm, prefix + [(2, 2)]) == 0
    st = classify(lm, prefix + [forced_block])
    assert st.chain in ((1, 2), (1, 3))


def test_dead_prefix_keeps_longest_valid_block_prefix():
    lm = stage2_lambda()
    prefix = [(1, 3), (2, 2), (3, 1), (2, 3)]
    digits = tuple(d for blk in prefix for d in blk)
    forced = forced_extension(lm.rule, Word(0, digits), 2).tail[-2:]
    # the forced block's first digit matches, its second does not: the
    # state is still that of the four typical blocks
    st = classify(lm, prefix + [(forced[0], forced[1] + 1)])
    assert not st.valid and st.mass == 0
    assert (st.chain, st.label, st.typical_count) == ((1, 2), 2, 4)
    assert (st.q, st.q_prev, st.digit_sum) == (
        continuant(digits), continuant(digits[:-1]), sum(digits))
    # the same rule for an off-support typical block after the run
    st = classify(lm, prefix + [forced, (9, 9)])
    digits += forced
    assert not st.valid and st.typical_count == 4
    assert (st.q, st.q_prev, st.digit_sum) == (
        continuant(digits), continuant(digits[:-1]), sum(digits))


@pytest.mark.parametrize("forced", [(8, 3), ()])
def test_forced_block_of_wrong_length_is_a_mismatch(forced):
    # (4, 4) forces the digit sum 8 at block index 2; a block of another
    # length ends the walk at the two typical blocks before it, as a wrong
    # digit does
    lm = toy_lambda()
    st = classify(lm, [(4,), (4,), forced])
    assert not st.valid and st.mass == 0
    assert (st.label, st.typical_count) == (st.chain[-1], 2)
    assert (st.q, st.q_prev, st.digit_sum) == (17, 4, 8)
    assert classify(lm, [(4,), (4,), (8,)]).valid


def _reference_classify(lm, blocks):
    """The per-block classifier: each block is checked on its own, a
    typical one against nu's support and a forced one digit by digit
    against the rule.

    Returns the PathState and why the walk ended: "off-support",
    "digit" or "length" for an invalid path, "cut" for a valid one that
    ends inside a forced run, else None.
    """
    nu, sch = lm.nu, lm.schedule
    s = len(nu.support)
    label, chain = 1, [1]
    seg_rank = typical = 0
    q, qp, dsum = 1, 0, 0
    run_end = 0
    why = None
    for b, blk in enumerate(blocks):
        if label <= sch.depth and b == sch.i[label - 1]:
            run_end = b + sch.r[label - 1]
            top = seg_rank < lm.stage_split(label).count
            label = 2 * label + (0 if top else 1)
            chain.append(label)
            seg_rank = 0
        if b < run_end:
            if len(blk) != sch.p:
                why = "length"
                break
            nq, nqp, nsum = q, qp, dsum
            for d in blk:
                if d != rho_value(lm.rule, nq, nsum):
                    why = "digit"
                    break
                nq, nqp, nsum = d * nq + nqp, nq, nsum + d
            if why:
                break
            guard_int(nq, "forced-run continuant")
            q, qp, dsum = nq, nqp, nsum
            continue
        if tuple(blk) not in nu.support:
            why = "off-support"
            break
        seg_rank = seg_rank * s + nu.block_index(tuple(blk))
        typical += 1
        for d in blk:
            q, qp, dsum = d * q + qp, q, dsum + d
    if why is None and len(blocks) < run_end:
        why = "cut"
    mass = Fraction(0) if why in ("off-support", "digit", "length") \
        else nu.atom**typical
    return PathState(mass != 0, mass, tuple(chain), label, typical,
                     q, qp, dsum), why


def psi_runs_lambda():
    # psi(q) = q^-5/2 with runs of 1, 2 and 3 blocks
    nu = nu_digits45()
    sch = Schedule(i=(2, 5, 9), r=(1, 2, 3), p=1, sigma=nu.sigma,
                   rule=AssignmentRule.psi_power(Fraction(5, 2)))
    return build_lambda(nu, sch, 13)


@pytest.mark.parametrize("make,depth", [
    (lambda: toy_lambda(runs=(1, 2, 2, 2)), 13), (stage2_lambda, 98),
    (psi_runs_lambda, 13),
])
def test_classify_matches_reference_on_mutated_paths(make, depth):
    # every block of sampled paths, replaced by an off-support block, a
    # block with a changed digit, one digit longer or one digit shorter,
    # and every prefix of them
    lm = make()
    support = set(lm.nu.support)
    seen = set()
    for seed in range(4):
        path = sample_path(lm, depth, seed)
        paths = [path[:k] for k in range(depth + 1)]
        for b, blk in enumerate(path):
            off = tuple(d + 7 for d in blk)
            assert off not in support
            for bad in (off, blk[:-1] + (blk[-1] + 1,), blk + (1,), blk[1:]):
                paths.append(path[:b] + [bad] + path[b + 1:])
        for mutated in paths:
            want, why = _reference_classify(lm, mutated)
            assert classify(lm, mutated) == want
            assert cylinder_mass(lm, mutated) == want.mass
            seen.add(why)
    assert seen == {None, "off-support", "digit", "length", "cut"}


# ------------------------------------------------- sampler against reference


def a10_lambda():
    nu = build_nu(3, 1, None, Fraction(1, 4), sigma_anchor=(6, 2))
    sch = Schedule(i=(2, 4, 7, 11, 16, 22, 29), r=(1, 1, 1, 2, 2, 2, 3),
                   p=1, sigma=nu.sigma, rule=AssignmentRule.sum_of_previous())
    return build_lambda(nu, sch, 130)


def cylinder_rows(lm, depth, labels=None):
    """(chain, pn, pp, q, qp, mass) of every cylinder, in enumeration
    order."""
    cols = _lambda_leaves(lm, depth, labels=labels)
    chains = [cols.chains[k] for k in cols.chain_ids.tolist()]
    masses = [lm.nu.atom**k for k in cols.typical.tolist()]
    return list(zip(chains, cols.pn, cols.pp, cols.q, cols.qp, masses))


def sampled_rows(lm, samples, depth, seed):
    """(chain, pn, pp, q, qp) of each path of one shared-stream draw."""
    cols = _sample_columns(lm, samples, depth, seed)
    rows = [(cols.chains[k], *row) for k, row in zip(
        cols.chain_ids.tolist(), zip(cols.pn, cols.pp, cols.q, cols.qp))]
    return [rows[k] for k in cols.inverse.tolist()]


@pytest.mark.parametrize("make,depth", [
    (toy_lambda, 13), (toy_lambda, 3), (a10_lambda, 128), (stage2_lambda, 98),
])
def test_sampler_matches_reference_walker(make, depth):
    lm = make()
    for seed in range(25):
        assert sample_path(lm, depth, seed) == \
            _reference_walk(lm, depth, random.Random(seed))[0]
    # one rng shared by every sample of a Monte Carlo draw
    for seed in (0, 9):
        rng = random.Random(seed)
        want = [_reference_walk(lm, depth, rng)[1:] for _ in range(60)]
        got = sampled_rows(lm, 60, depth, seed)
        assert got == want


def _dtype_switches(monkeypatch, name):
    """Spy on cascade.<name>: for each call, whether it took int64 columns
    and gave back Python ints, and its input's largest continuant."""
    calls = []
    real = getattr(cascade, name)

    def spy(cols, *args):
        out = real(cols, *args)
        calls.append((cols[0].dtype != object and out[0].dtype == object,
                      int(cols[0].max())))
        return out

    monkeypatch.setattr(cascade, name, spy)
    return calls


def test_sampler_moves_to_python_ints_inside_a_typical_segment(monkeypatch):
    # a10 paths pass 2^62 in a typical segment, near block 35; the switch
    # comes after int64 blocks of the same segment
    lm = a10_lambda()
    calls = _dtype_switches(monkeypatch, "_typical_blocks")
    rng = random.Random(2)
    want = [_reference_walk(lm, 128, rng)[1:] for _ in range(30)]
    assert sampled_rows(lm, 30, 128, 2) == want
    growth = cascade._BlockTables(lm.nu).growth
    assert any(switched and top * growth < 2**62 for switched, top in calls)


def test_sampler_moves_to_python_ints_inside_a_forced_run(monkeypatch):
    # q = K(16 digits from {4, 5}) lies in [2^32, 2^39]; under psi(q) =
    # q^-3 the forced digit is q itself, which takes q past 2^62
    nu = nu_digits45()
    sch = Schedule(i=(16,), r=(1,), p=1, sigma=nu.sigma,
                   rule=AssignmentRule.psi_power(3))
    lm = build_lambda(nu, sch, 20)
    calls = _dtype_switches(monkeypatch, "_forced_run")
    for seed in (0, 1):
        rng = random.Random(seed)
        want = [_reference_walk(lm, 20, rng)[1:] for _ in range(30)]
        assert sampled_rows(lm, 30, 20, seed) == want
    assert calls and all(switched for switched, _ in calls)


@pytest.mark.parametrize("limit", [2**4, 2**7, 2**20])
@pytest.mark.parametrize("make,depth", [
    (toy_lambda, 13), (a10_lambda, 128), (stage2_lambda, 98),
])
def test_sampler_matches_reference_at_any_int64_limit(monkeypatch, make,
                                                      depth, limit):
    # a low limit moves the columns to Python ints early, mid-chunk and
    # mid-run; at 2^4 a single p = 2 block (growth 16) passes it alone
    monkeypatch.setattr(cascade, "_INT64_LIMIT", limit)
    lm = make()
    rng = random.Random(limit)
    want = [_reference_walk(lm, depth, rng)[1:] for _ in range(20)]
    assert sampled_rows(lm, 20, depth, limit) == want


def test_sampler_takes_digits_past_int64():
    # one block alone passes int64: the tables and columns hold Python ints
    big = 2**63
    nu = NuMeasure(n_bound=big + 1, p=1, sigma=math.log(big),
                   eps_window=Fraction(1, 4), support=((big,), (big + 1,)),
                   beta_achieved=math.log(2) / math.log(big))
    sch = Schedule(i=(2, 4), r=(1, 1), p=1, sigma=nu.sigma,
                   rule=AssignmentRule.sum_of_previous())
    lm = build_lambda(nu, sch, 8)
    rng = random.Random(1)
    want = [_reference_walk(lm, 8, rng)[1:] for _ in range(20)]
    assert sampled_rows(lm, 20, 8, 1) == want


def psi_gate_lambda():
    # psi(q) = q^-3: each forced digit is q. At 4 decimal digits, label 2
    # paths (tested at block 4) pass the digit's own check and fail the
    # continuant guard; label 3 paths (block 6) fail the digit's check
    nu = nu_digits45()
    sch = Schedule(i=(2, 4, 6), r=(1, 1, 1), p=1, sigma=nu.sigma,
                   rule=AssignmentRule.psi_power(3))
    return build_lambda(nu, sch, 8)


@pytest.mark.parametrize("make,depth,budget", [
    (toy_lambda, 13, 2), (toy_lambda, 13, 7), (toy_lambda, 13, 10),
    (toy_lambda, 13, 11), (psi_gate_lambda, 8, 4),
])
def test_sampler_raises_the_walks_overflow(monkeypatch, make, depth, budget):
    # toy_lambda at 7 and 10 digits: the first paths pass and a later one
    # overflows; at 11 none does. The psi cascade's draws fail in two
    # ways, and which comes first depends on the seed
    lm = make()
    monkeypatch.setattr(numeric, "_digit_budget", budget)
    messages = set()
    for seed in range(6):
        rng = random.Random(seed)
        try:
            want = [_reference_walk(lm, depth, rng)[1:] for _ in range(40)]
        except Overflow as exc:
            messages.add(str(exc))
            with pytest.raises(Overflow) as drawn:
                _sample_columns(lm, 40, depth, seed)
            assert str(drawn.value) == str(exc)
        else:
            assert sampled_rows(lm, 40, depth, seed) == want
        try:
            sample_path(lm, depth, seed)
        except Overflow as exc:
            with pytest.raises(Overflow) as drawn:
                _sample_columns(lm, 1, depth, seed)
            assert str(drawn.value) == str(exc)
        else:
            _sample_columns(lm, 1, depth, seed)
    if make is psi_gate_lambda:
        assert len(messages) == 2


# ------------------------------------------------- walkers against each other


RULES = (AssignmentRule.sum_of_previous(),
         AssignmentRule.psi_power(Fraction(5, 2)),
         AssignmentRule.psi_power(3))


@st.composite
def small_cascades(draw):
    """Random schedules of 1-3 stages over the p = 1 alphabet {4, 5} or
    the 5 blocks of stage2_lambda's p = 2 measure, with horizons of at
    most 7 or 4 blocks: at most 2^7 or 5^4 cylinders."""
    p = draw(st.sampled_from([1, 2]))
    nu = nu_digits45() if p == 1 else stage2_lambda().nu
    i, r = [], []
    b = draw(st.integers(1, 2))
    for _ in range(draw(st.integers(1, 3))):
        i.append(b)
        r.append(draw(st.integers(r[-1] if r else 1, 2)))
        b += r[-1] + draw(st.integers(1, 2))
    sch = Schedule(i=tuple(i), r=tuple(r), p=p, sigma=nu.sigma,
                   rule=draw(st.sampled_from(RULES)))
    return build_lambda(nu, sch, draw(st.integers(1, 7 if p == 1 else 4)))


@settings(max_examples=40, deadline=None)
@given(lm=small_cascades(), seed=st.integers(0, 2**32))
def test_walkers_agree_on_small_cascades(lm, seed):
    depth = lm.horizon
    rows = cylinder_rows(lm, depth)
    assert sum(row[-1] for row in rows) == 1
    cylinders = {row[:-1]: row[-1] for row in rows}
    # a label filter keeps the paths whose every label it holds, in order
    rng = random.Random(seed)
    labels = {1} | {m for m in range(2, 2 * lm.schedule.depth + 2)
                    if rng.random() < 0.6}
    assert cylinder_rows(lm, depth, labels) == [
        row for row in rows if labels.issuperset(row[0])]
    for k in range(5):
        path = sample_path(lm, depth, seed + k)
        (row,) = sampled_rows(lm, 1, depth, seed + k)
        state = classify(lm, path)
        assert state.valid
        chain, _, _, q, qp = row
        assert (chain, q, qp) == (state.chain, state.q, state.q_prev)
        assert cylinders[row] == state.mass
    # 40 paths from one shared generator, against the per-block sampler
    rng = random.Random(seed)
    want = [_reference_walk(lm, depth, rng)[1:] for _ in range(40)]
    got = sampled_rows(lm, 40, depth, seed)
    assert got == want
    assert all(cylinders[row] > 0 for row in got)
