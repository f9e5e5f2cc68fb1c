"""Property tests over small random scenarios, derandomised and bounded.

Every detector that takes a support size must return exactly zeta sorted,
distinct, in-range indices, whatever the dimensions: zeta above the pilot
length or equal to the pool size, every user active, one-symbol reference
signals, no data block, noiseless frames and pools with repeated pilots.
Every counted ledger must equal its closed-form model, BOMP's picks at one
zeta must be among its picks at any larger zeta, the picks past the full span
scoring exactly 0, every direct weight
row must equal its own pilot's product with ``pinv(Y)`` bit for bit, the
zero-forcing of a wide least-squares estimate from ``Y`` and its certified
pilot factor must match numpy's ``pinv`` of the product at the product's
cutoff, for any M, and without a certified factor the estimate is the
product and its ``pinv`` exactly, the FPR Gram's in-place Schur rule must equal the
allocating one it replaced bit for bit, or fail on the same leaf, while
``pinv`` leaves its input as it was, and
``run_point`` rows must not depend on the number of trial workers, with the
library's BLAS pin active or bypassed, nor on whether the config's whole
numbers were given as ints or as floats.  A config file of small
or junk values is either rejected with a ValueError or synthesises a frame,
and so is a sweep of repeated, fractional or non-finite values and repeated
or unknown detectors: rejected, or one row per distinct value and detector.
One trial's draw gives, at every noise power, the frame that a new draw of
the trial at that SNR gives, bit for bit, and a sweep over any variable gives the rows of
its points run one by one.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pdrslink.combining import LsEstimate, dwe_weights, ls_channel_estimate, pilot_factor, zf_weights
from pdrslink.detectors import detect_bomp, detect_fpr, detect_pdrs_dwe, fpr_gram_pinv, oracle_support
from pdrslink import detectors, linalg
from test_linalg import schur_inv_reference, tall_rule_reference
from pdrslink.harness import DETECTORS, SWEEP_VARS, SweepSpec, parse_config, run_point, run_sweep
from pdrslink.metrics import complexity_model
from pdrslink.scenario import (
    PDRS_MODES,
    PilotPool,
    SystemConfig,
    draw_trial,
    synth_codebook,
    synth_pool,
)


@st.composite
def scenarios(draw):
    L = draw(st.integers(1, 6))
    N = draw(st.integers(L + 1, 12))
    cfg = SystemConfig(
        M=draw(st.integers(1, 6)),
        N=N,
        L=L,
        l=draw(st.integers(1, 3)),
        K=draw(st.integers(1, N)),
        zeta=draw(st.integers(1, N)),
        snr_db=draw(st.sampled_from([0.0, 10.0, float("inf")])),
        D=draw(st.integers(0, 3)),
        pdrs_mode=draw(st.sampled_from(PDRS_MODES)),
        trials=1,
        seed=draw(st.integers(0, 2**16)),
    )
    # each listed user takes over the pilot of a lower-indexed one
    copies = draw(st.lists(st.integers(1, N - 1), max_size=3, unique=True))
    return cfg, copies


def _frame(cfg, copies):
    P = synth_pool(cfg).P.copy()
    for n in copies:
        P[n] = P[n - 1]
    pool, codebook = PilotPool(P), synth_codebook(cfg)
    return draw_trial(cfg, pool, codebook, 0).frame(cfg.sigma2), pool, codebook


def _assert_support(detected, size, N):
    assert detected.dtype.kind == "i"
    assert detected.size == size
    assert np.all(np.diff(detected) > 0)
    assert detected[0] >= 0 and detected[-1] < N


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(scenarios())
def test_every_detector_returns_zeta_distinct_sorted_indices(scenario):
    cfg, copies = scenario
    frame, pool, codebook = _frame(cfg, copies)
    pdrs = detect_pdrs_dwe(frame, pool, codebook, cfg.zeta)
    bomp = detect_bomp(frame, pool, cfg.zeta)
    fpr = detect_fpr(frame, pool, cfg.zeta, fpr_gram_pinv(pool))
    for res in (pdrs, bomp, fpr):
        _assert_support(res.detected, cfg.zeta, cfg.N)
    _assert_support(oracle_support(frame).detected, cfg.K, cfg.N)
    assert pdrs.mults == complexity_model(cfg, "pdrs").detect_mults
    fpr_model = complexity_model(cfg, "fpr")
    assert (fpr.mults, fpr.real_mults) == (fpr_model.detect_mults, fpr_model.real_mults)
    if not copies:
        # distinct random pilots never trip the in-span skip, so BOMP's
        # ledger follows the closed-form model, zeta > L included
        assert bomp.mults == complexity_model(cfg, "bomp").detect_mults


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(scenarios(), st.data())
def test_bomp_picks_do_not_depend_on_zeta(scenario, data):
    # the run at z2 = cfg.zeta makes c correlated picks; they are the picks of
    # zeta = c, and when c < z2 they span C^L and the rest of the support is
    # the lowest unselected indices, scored exactly 0
    cfg, copies = scenario
    frame, pool, _ = _frame(cfg, copies)
    z2, z1 = cfg.zeta, data.draw(st.integers(1, cfg.zeta), label="z1")
    powers, calls = detectors._correlation_powers, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detectors, "_correlation_powers", lambda Z, P: calls.append(Z) or powers(Z, P))
        full = detect_bomp(frame, pool, z2)
    part = detect_bomp(frame, pool, z1)
    assert np.isin(part.detected, full.detected).all()
    assert np.array_equal(part.scores[part.detected], full.scores[part.detected])
    pursued = detect_bomp(frame, pool, len(calls)).detected
    tail = np.setdiff1d(full.detected, pursued)
    assert np.array_equal(tail, np.setdiff1d(np.arange(cfg.N), pursued)[: z2 - len(calls)])
    assert np.all(full.scores[tail] == 0.0)
    if tail.size:
        assert np.linalg.matrix_rank(pool.P[pursued]) == cfg.L


@st.composite
def dwe_cases(draw):
    """A frame, its pool and a detected set: one row, up to every user, zeta > L included."""
    L = draw(st.integers(1, 24))
    N = draw(st.integers(L + 1, 64))
    cfg = SystemConfig(
        M=draw(st.integers(1, 48)), N=N, L=L, l=2, K=draw(st.integers(1, L)), zeta=1,
        snr_db=4.0, D=0, trials=1, seed=draw(st.integers(0, 2**16)),
    )
    detected = draw(st.lists(st.integers(0, N - 1), min_size=1, max_size=N, unique=True))
    pool = synth_pool(cfg)
    return draw_trial(cfg, pool, synth_codebook(cfg), 0).frame(cfg.sigma2), pool, np.sort(detected)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(dwe_cases())
def test_a_dwe_row_is_its_pilot_times_pinv_y_whatever_its_companions(case):
    # a plain P[detected] @ pinv(Y) product blocks the rows and fails this
    frame, pool, detected = case
    y_pinv = linalg.pinv(frame.Y)
    W = dwe_weights(frame, pool, detected, y_pinv=y_pinv).W
    assert W.shape == (detected.size, frame.M)
    for i, n in enumerate(detected):
        assert np.array_equal(W[i].view(np.float64), (pool.P[n] @ y_pinv).view(np.float64))
    alone = dwe_weights(frame, pool, detected[-1:], y_pinv=y_pinv).W
    assert np.array_equal(alone.view(np.float64), W[-1:].view(np.float64))


@st.composite
def wide_ls_cases(draw):
    """A frame with M from 1 up, noisy or noiseless, and the support ``pdrs`` detects at
    zeta > L, in either codebook mode, from a pool that may repeat pilots."""
    L = draw(st.integers(1, 12))
    N = draw(st.integers(L + 1, 40))
    cfg = SystemConfig(
        M=draw(st.integers(1, 24)), N=N, L=L, l=draw(st.integers(1, 3)),
        K=draw(st.integers(1, N)), zeta=draw(st.integers(L + 1, N)),
        snr_db=draw(st.sampled_from([0.0, 10.0, 30.0, float("inf")])), D=0,
        pdrs_mode=draw(st.sampled_from(PDRS_MODES)), trials=1, seed=draw(st.integers(0, 2**16)),
    )
    copies = draw(st.lists(st.integers(1, N - 1), max_size=3, unique=True))
    frame, pool, codebook = _frame(cfg, copies)
    return frame, pool, detect_pdrs_dwe(frame, pool, codebook, cfg.zeta).detected, copies


#: Relative Frobenius bound on the factored zero-forcing weights against numpy's ``pinv`` of the
#: product at the same cutoff.  Of these 150 examples (14 with M < L, 22 noiseless, 19 with Y of
#: rank below L), the worst reads 3.2e-14, and 8.5e-14 on the projector ``W H``; 8 repeat pilots
#: so that the factor is uncertified, and take the product.
FACTORED_ZF_RTOL = 1e-10


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(wide_ls_cases())
def test_a_wide_estimate_is_zero_forced_from_its_factors_as_pinv_of_the_product(case):
    frame, pool, detected, copies = case
    P = pool.P[detected]
    H = frame.Y @ linalg.pinv(P)
    est = ls_channel_estimate(frame, pool, detected)
    W = zf_weights(est, detected).W
    if pilot_factor(P) is None:
        # only a repeated pilot can leave the pilot block without a certified factor
        assert copies
        assert type(est) is np.ndarray and est.tobytes() == H.tobytes()
        assert np.array_equal(W.view(np.float64), linalg.pinv(H).view(np.float64))
        return
    assert isinstance(est, LsEstimate)
    ref = np.linalg.pinv(H, rtol=max(H.shape) * linalg.DEFAULT_PINV_RTOL_SCALE)
    assert np.linalg.norm(W - ref) <= FACTORED_ZF_RTOL * np.linalg.norm(ref)
    # W H is the orthogonal projector pinv(H) H onto the rows of H
    assert np.linalg.norm(W @ H - ref @ H) <= FACTORED_ZF_RTOL * np.linalg.norm(ref @ H)


def _rows_without_wall_clock(cfg, threads, blas):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PDRS_THREADS", threads)
        mp.setattr(linalg, "_blas", blas)
        rows = run_point(cfg, list(DETECTORS))
    # nan rates compare equal through repr
    return [repr({**vars(r), "wall_clock_ms": None}) for r in rows]


@st.composite
def hermitian_inputs(draw):
    """An exactly Hermitian input up to three Schur leaves wide, real or complex, its Gaussian
    spectrum shifted to be positive definite (3 sqrt(n)) or not (the smaller shifts)."""
    n = draw(st.integers(1, 3 * linalg.SCHUR_LEAF))
    gen = np.random.default_rng(draw(st.integers(0, 2**16)))
    g = gen.standard_normal((n, n))
    if not draw(st.booleans()):
        g = g + 1j * gen.standard_normal((n, n))
    shift = draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 3.0])) * np.sqrt(n)
    return (g + g.conj().T) / 2 + shift * np.eye(n)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(hermitian_inputs())
def test_the_in_place_hermitian_rule_is_the_allocating_one(a):
    try:
        ref = schur_inv_reference(a)
    except np.linalg.LinAlgError:
        ref = None  # a leaf is not positive definite: the in-place rule fails on the same leaf
    x = a.copy()
    if ref is None:
        with pytest.raises(np.linalg.LinAlgError):
            linalg._schur_inv(x)
    else:
        linalg._schur_inv(x)
        assert x.tobytes() == ref.tobytes()
    before = a.copy()
    linalg.pinv(a)
    assert a.tobytes() == before.tobytes()


@st.composite
def tall_inputs(draw):
    """A tall input up to 130 rows, real or complex, Gaussian or with its columns scaled apart
    by up to 1e6, so that some fail the tall rule's certificate."""
    m = draw(st.integers(2, 130))
    n = draw(st.integers(1, m - 1))
    gen = np.random.default_rng(draw(st.integers(0, 2**16)))
    a = gen.standard_normal((m, n))
    if not draw(st.booleans()):
        a = a + 1j * gen.standard_normal((m, n))
    return a * np.logspace(0, draw(st.sampled_from([0.0, 3.0, 6.0])), n)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(tall_inputs())
def test_the_in_place_newton_schulz_step_is_the_allocating_one(a):
    got = linalg._normal_eq_pinv(a)
    if got is not None:  # certified: the step ran
        assert got.tobytes() == tall_rule_reference(a).tobytes()
    before = a.copy()
    linalg.pinv(a)
    assert a.tobytes() == before.tobytes()


#: No setter and an environment said to pin BLAS: the sweep leaves BLAS alone and keeps its workers.
BYPASSED_PIN = linalg.BlasThreads(env_pinned=True)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(scenarios(), st.integers(1, 4))
def test_run_point_rows_do_not_depend_on_the_worker_count(scenario, trials):
    cfg = replace(scenario[0], trials=trials)
    for blas in (linalg.process_blas(), BYPASSED_PIN):
        rows = [_rows_without_wall_clock(cfg, threads, blas) for threads in ("1", "2", "3")]
        assert rows[0] == rows[1] == rows[2]
    floats = {f.name: float(getattr(cfg, f.name)) for f in fields(cfg) if f.type is int}
    assert _rows_without_wall_clock(replace(cfg, **floats), "1", linalg.process_blas()) == rows[0]


#: Values that no key, or only some keys, take as valid.
JUNK = ["", "x", "1.5", "-1", "0", "1e400", "-4000", "nan", "-inf", str(2**64), "orthogonal-reuse"]

#: Small ranges of the integer keys, so a valid config allocates little.
SMALL = {"M": (1, 8), "N": (2, 12), "L": (1, 8), "l": (1, 4), "K": (1, 8), "zeta": (1, 12),
         "D": (0, 4), "trials": (1, 3), "svd_cost": (1, 4)}


def _small(key: str):
    if key == "snr_db":
        return st.one_of(st.floats(-30.0, 30.0).map(repr), st.just("inf"))
    if key == "pdrs_mode":
        return st.sampled_from(PDRS_MODES)
    if key == "seed":
        return st.sampled_from([0, 1, 2**64 - 1]).map(str)
    return st.integers(*SMALL[key]).map(str)


@st.composite
def config_texts(draw):
    """Every SystemConfig key once in any order, up to two with junk values, maybe one key again."""
    keys = draw(st.permutations([f.name for f in fields(SystemConfig)]))
    junk = draw(st.lists(st.sampled_from(keys), max_size=2))
    keys += draw(st.lists(st.sampled_from(keys), max_size=1))
    values = [draw(st.sampled_from(JUNK) if key in junk else _small(key)) for key in keys]
    return "".join(f"{key} = {value}  # c\n\n" for key, value in zip(keys, values))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(config_texts())
def test_a_config_file_is_rejected_or_synthesises_a_frame(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "property.cfg"
    path.write_text(text)
    try:
        cfg = parse_config(path)
    except ValueError:
        return
    pool, codebook = synth_pool(cfg), synth_codebook(cfg)
    draw_trial(cfg, pool, codebook, 0).frame(cfg.sigma2)


#: Sweep values: whole numbers, fractions, non-finite values and one so large
#: that ``alpha * K`` overflows; some variable rejects each kind.
SWEEP_VALUES = st.one_of(
    st.integers(0, 8).map(float),
    st.sampled_from([0.5, 1.5, 1e308, float("inf"), float("-inf"), float("nan")]),
)


@st.composite
def sweep_specs(draw):
    """SweepSpec arguments on a tiny base config; values and detectors may repeat."""
    base = SystemConfig(
        M=4, N=8, L=3, l=2, K=2, zeta=2, snr_db=10.0, D=2, trials=1, seed=draw(st.integers(0, 2**16))
    )
    variable = draw(st.sampled_from(SWEEP_VARS))
    values = draw(st.lists(SWEEP_VALUES, min_size=1, max_size=3))
    detectors = draw(st.lists(st.sampled_from(DETECTORS + ("bogus",)), min_size=1, max_size=3))
    return base, variable, values, detectors


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(sweep_specs())
def test_a_sweep_spec_is_rejected_or_runs_every_point(args):
    try:
        spec = SweepSpec(*args)
    except ValueError:
        return
    values = [float(v) for v in spec.values]
    assert len(set(values)) == len(values)
    assert len(set(spec.detectors)) == len(spec.detectors)
    assert all(isinstance(spec.config_at(v), SystemConfig) for v in spec.values)
    assert len(run_sweep(spec)) == len(spec.values) * len(spec.detectors)


SNRS = [-10.0, 0.0, 4.0, 30.0, float("inf")]


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(scenarios(), st.lists(st.sampled_from(SNRS), min_size=1, max_size=4, unique=True), st.integers(0, 3))
def test_a_draw_gives_the_synthesised_frame_at_every_snr(scenario, snrs, t):
    cfg = scenario[0]
    pool, cb = synth_pool(cfg), synth_codebook(cfg)
    draw = draw_trial(cfg, pool, cb, t)
    for snr_db in snrs:
        at = replace(cfg, snr_db=snr_db)
        got = draw.frame(at.sigma2)
        want = draw_trial(at, pool, cb, t).frame(at.sigma2)
        assert got.sigma2 == want.sigma2
        for name in ("Y_R", "Y", "Y_D", "H", "X_D"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (snr_db, name)
        assert np.array_equal(got.ground_truth.active, want.ground_truth.active)


def _stable(rows):
    """Every field but wall_clock_ms, as reprs so nan equals nan and floats match bit for bit."""
    return [tuple(repr(getattr(r, f.name)) for f in fields(r) if f.name != "wall_clock_ms") for r in rows]


#: Candidate values of each sweep variable on a tiny base config.
SWEPT = {
    "snr_db": st.sampled_from(SNRS),
    "alpha": st.sampled_from([0.5, 1.0, 1.5, 2.0]),
    "K": st.integers(1, 6),
    "l": st.integers(1, 3),
}


@pytest.mark.parametrize("D", [0, 2])
@pytest.mark.parametrize("variable", SWEEP_VARS)
@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_a_sweep_gives_the_rows_of_its_points_run_one_by_one(variable, D, data):
    L = data.draw(st.integers(1, 4))
    N = data.draw(st.integers(max(L + 1, 6), 10))
    K = data.draw(st.integers(1, N))
    base = SystemConfig(
        M=data.draw(st.integers(1, 5)), N=N, L=L, l=data.draw(st.integers(1, 3)), K=K,
        zeta=data.draw(st.integers(1, N)), snr_db=data.draw(st.sampled_from(SNRS)), D=D,
        trials=data.draw(st.integers(1, 3)), seed=data.draw(st.integers(0, 2**16)),
    )
    values = data.draw(st.lists(SWEPT[variable], min_size=1, max_size=3, unique=True))
    if variable == "snr_db":
        values.append(float("inf"))  # every sweep ends at infinite SNR
        values = list(dict.fromkeys(values))
    detectors = data.draw(st.lists(st.sampled_from(DETECTORS), min_size=1, max_size=4, unique=True))
    try:
        spec = SweepSpec(base, variable, values, detectors)
    except ValueError:  # a zeta or K outside [1, N]
        assume(False)
    swept = run_sweep(spec)
    alone = [
        replace(r, sweep_var=variable, sweep_value=v)
        for v in spec.values
        for r in run_point(spec.config_at(v), detectors)
    ]
    assert _stable(swept) == _stable(alone)
