"""Randomized verification suites for the norm identities and inequalities.

Each claim id names one checkable statement.  ``verify`` runs its suite over
seeded random instances (plus the fixed example maps where the statement is
about those), aggregates the worst residual, and reports pass/fail against
the claim's tolerance.  Residuals are violation slacks for inequalities and
absolute differences for equalities, so a report passes exactly when every
checked instance met its bound.

Claims about optimized quantities use tolerance 2e-3 (two independent
optimizations carry restart variance); claims that reduce to plain linear
algebra use 1e-8 .. 1e-10.

The exact claims (``duality``, ``hoelder``, ``block_bounds``,
``monotone_p``) run as one pass over their trials, ``_EXACT_CHUNK`` trials
at a time: the chunk's trials are drawn from the claim's stream in trial
order, all its matrices of one shape (``block_bounds``: its matrices and,
apart, its blocks of one shape) are decomposed in one ``np.linalg.svd``
call, and all spectra of one length are read at every grid exponent in one
``schatten._spectrum_pnorms`` call, which gives each row exactly
``schatten_norm`` of its matrix.  The residuals form one trials x cases
table, and each row's first maximum gives the trial's record.  The trials
decompose and pair the finite complex matrices they draw with
``np.linalg.svd`` and ``np.vdot``, without validating them again.
``duality`` builds the five witnesses of each X with ``schatten``'s witness
helpers, from one SVD with vectors per shape of X, and reads the norms of
the X of one shape and the dual norms of their witnesses in one public
``schatten_norm`` call on the stack of both.

Every randomized claim records each trial as its fields followed by
``residual`` (the trial's first largest residual, a NaN counting as larger
than any number, so that it fails the claim) and ``worst_case`` (that case's
label, or ``""`` at a residual of at most 1e-10, where rounding picks the
case).  The five claims on random maps are generators of
``(residual, label)`` cases on one seeded map per trial.  A trial asks all
its queries on one map at once, so they run as one stacked ascent per
ancilla size: ``theorem1`` one of 50 cells through ``norm_q_to_p``, and
``lemma1`` one of 25 cells on the map through ``norm_q_to_p`` and one of 25
PSD cells on each of its two CP sides through ``cp_norm`` (Theorem 1: a CP
map attains its norm on a PSD input), all given a list of queries without
an ancilla.  ``theorem1`` checks Theorem 1 itself, so it runs its ``full``
and ``hermitian`` cells as asked.  The trials run on up to the usable
CPUs, in the calling process and in forked workers, where fork is the start
method and no other thread runs; the reports are identical to a serial run.

The claims that compare ancilla sizes run every query on its own ancilla
(``optimize._norms`` with ``reduce=False``): ``norm_q_to_p`` answers some
ancilla queries on a smaller space by Theorems 2 and 3, and a reduced query
would make those checks compare a number with itself.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .channels import build_example, random_cp_channel, random_superop
from .errors import InvalidInputError, require_count
from .optimize import (
    NormQuery,
    OptimizerConfig,
    _factorization_bounds,
    _norms,
    norm_1_to_p,
    norm_q_to_p,
)
from .oracle import brute_force_oracle
from .schatten import (
    _block_bounds,
    _block_stack,
    _spectrum_pnorms,
    _witness_weights,
    _witnesses,
    dual_exponent,
    format_exponent,
    schatten_norm,
)
from .superop import difference

_EXPONENT_GRID = (1.0, 1.5, 2.0, 3.0, math.inf)
_DIMS_ROTATION = ((2, 2), (2, 3), (3, 2), (3, 3))


@dataclass(frozen=True)
class VerificationReport:
    claim_id: str
    trials: int
    worst_residual: float
    tolerance: float
    passed: bool
    seed: int
    details: tuple

    def to_obj(self) -> dict:
        return {**asdict(self), "details": list(self.details)}

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), separators=(",", ":"))


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed) & ((1 << 64) - 1), salt]))


def _trial_seeds(seed: int, salt: int, count: int) -> list[int]:
    return [int(s) for s in _rng(seed, salt).integers(0, 2**63 - 1, size=count)]


def _random_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """``re + 1j * im`` for Gaussian ``re`` and then ``im``, drawn in one call."""
    X = np.empty((rows, cols), dtype=complex)
    X.real, X.imag = rng.standard_normal((2, rows, cols))
    return X


def _label(q, p) -> str:
    return f"q={format_exponent(q)},p={format_exponent(p)}"


# the case labels and dual exponents over the exponent grid, built once
_P_LABELS = {p: f"p={format_exponent(p)}" for p in _EXPONENT_GRID}
_DUAL = {p: dual_exponent(p) for p in _EXPONENT_GRID}
_QP_LABELS = {(q, p): _label(q, p) for q in _EXPONENT_GRID for p in _EXPONENT_GRID}


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _can_fork() -> bool:
    """Fork is the start method and no other Python thread runs.

    A spawn or forkserver worker re-imports numpy, which makes the fan-out
    slower than the serial loop; a fork beside a running thread can copy a
    lock that thread holds.
    """
    import multiprocessing
    import threading

    method = multiprocessing.get_start_method(allow_none=True)
    default = multiprocessing.get_all_start_methods()[0]
    return (method or default) == "fork" and threading.active_count() == 1


def _run_trials(salt, trial, seed, trials, restarts):
    """``trial(i, seed_i, restarts)`` for ``i < trials``, in trial order.

    A trial is a pure function of its arguments.  Where ``n = min(trials,
    usable CPUs) >= 2`` and ``_can_fork()``, the calling process runs the
    last ``trials // n`` trials while ``n - 1`` forked workers, which live
    only inside this call, share the others.  The details are the same bit
    for bit as in a serial run.
    """
    seeds = _trial_seeds(seed, salt, trials)
    share = min(trials, _usable_cpus())
    if share >= 2 and _can_fork():
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        split = trials - trials // share
        before = set(multiprocessing.active_children())
        try:
            pool = ProcessPoolExecutor(share - 1, mp_context=multiprocessing.get_context("fork"))
            theirs = pool.map(trial, range(split), seeds[:split], [restarts] * split)  # forks
        except OSError:
            # a worker could not start (a process limit): stop those that did
            for child in set(multiprocessing.active_children()) - before:
                child.terminate()
                child.join()
        else:
            with pool:
                mine = [trial(i, seeds[i], restarts) for i in range(split, trials)]
                return list(theirs) + mine
    return [trial(i, s, restarts) for i, s in enumerate(seeds)]


# at a largest residual this small, which case attains it is set by rounding
_LABEL_FLOOR = 1e-10


def _record(i, fields, cases) -> dict:
    """Trial i's record: its fields, then the first largest residual over
    ``(residual, label)`` cases and that case's label, or ``""`` where the
    residual is at most ``_LABEL_FLOOR``.  A NaN residual is larger than any
    other, as in ``_table_records``, so the first NaN is the record's."""
    worst, at = 0.0, ""
    for r, label in cases:
        if r > worst or (math.isnan(r) and not math.isnan(worst)):
            worst, at = r, label
    return {"trial": i, **fields, "residual": worst, "worst_case": _worst_label(worst, at)}


def _worst_label(residual: float, label: str) -> str:
    """The worst case's label of a record, ``""`` at a residual of at most
    ``_LABEL_FLOOR``; a NaN residual keeps its label."""
    return "" if residual <= _LABEL_FLOOR else label


def _map_trial(cp, cases, i, seed, restarts):
    """Trial i's record of ``cases(phi, cfg)`` on its seeded map: a random CP
    channel if ``cp``, else a random super-operator (shapes cycle through
    ``_DIMS_ROTATION``, 2 or 3 terms).  The factory is read from the module's
    names at call time, not held by the registry, so rebinding them reaches
    every trial."""
    din, dout = _DIMS_ROTATION[i % len(_DIMS_ROTATION)]
    phi = (random_cp_channel if cp else random_superop)(din, dout, 2 + i % 2, seed)
    cfg = OptimizerConfig(restarts=restarts, seed=seed)
    return _record(i, {"dims": [din, dout], "seed": seed}, cases(phi, cfg))


def _values(phi, queries: dict, cfg) -> dict:
    """The value of each query in ``queries`` (any key -> query), every one on
    its own ancilla, from one stacked ascent per ancilla size."""
    estimates = _norms(phi, list(queries.values()), cfg, reduce=False)
    return {key: est.value for key, est in zip(queries, estimates)}


def _theorem1_cases(phi, cfg):
    """CP maps: the unrestricted and Hermitian-restricted norms coincide.  Both
    run the ascent as asked (a PSD route for either would compare a number
    with itself)."""
    grid = [(q, p) for q in _EXPONENT_GRID for p in _EXPONENT_GRID]
    est = norm_q_to_p(phi, [NormQuery(q, p, h) for h in (False, True) for q, p in grid], cfg)
    for cell, plain, herm in zip(grid, est[: len(grid)], est[len(grid) :]):
        yield abs(plain.value - herm.value), _QP_LABELS[cell]


def _lemma1_cases(phi, cfg):
    """||Phi||_{q->p} <= sqrt(||Phi_L||^H ||Phi_R||^H) for the stored Kraus pair;
    the CP sides' Hermitian norms come from PSD cells (Theorem 1)."""
    grid = [(q, p) for q in _EXPONENT_GRID for p in _EXPONENT_GRID]
    for cell, (lhs, rhs) in zip(grid, _factorization_bounds(phi, [NormQuery(*cell) for cell in grid], cfg)):
        yield max(0.0, lhs - rhs), _QP_LABELS[cell]


def _theorem2_cases(phi, cfg):
    """Tensoring with an identity changes nothing once p >= 2 and q <= 2."""
    cells = [(q, p) for q in (1.0, 1.5, 2.0) for p in (2.0, 3.0, math.inf)]
    v = _values(phi, {(q, p, anc): NormQuery(q, p, False, anc) for anc in (0, 2, 3) for q, p in cells}, cfg)
    for q, p in cells:
        for anc in (2, 3):
            yield abs(v[q, p, anc] - v[q, p, 0]), f"{_QP_LABELS[q, p]},ancilla={anc}"


def _theorem3_cases(phi, cfg):
    """An ancilla of the input dimension already saturates the stabilized norm."""
    ancillas = (phi.dim_in, phi.dim_in + 1)
    v = _values(
        phi,
        {(p, h, k): NormQuery(1.0, p, h, k) for k in ancillas for h in (False, True) for p in _EXPONENT_GRID},
        cfg,
    )
    for p in _EXPONENT_GRID:
        for herm in (False, True):
            residual = abs(v[p, herm, ancillas[0]] - v[p, herm, ancillas[1]])
            yield residual, f"{_P_LABELS[p]},hermitian={herm}"


def _ahw_fact_cases(phi, cfg):
    """For CP maps the Hermitian 1->p norm ignores tensoring with an identity."""
    exponents = (1.0, 2.0, math.inf)
    v = _values(phi, {(p, k): NormQuery(1.0, p, True, k) for k in (0, 2) for p in exponents}, cfg)
    for p in exponents:
        yield abs(v[p, 0] - v[p, 2]), _P_LABELS[p]


def _run_fixed(salt, cases, seed, trials, restarts):
    """``cases(cfg) -> (name, value, expected)`` on the fixed example maps; ``trials`` is unused."""
    cfg = OptimizerConfig(restarts=restarts, seed=_trial_seeds(seed, salt, 1)[0])
    return [
        {"case": name, "value": got, "expected": want, "residual": abs(got - want)}
        for name, got, want in cases(cfg)
    ]


def _counterexample_cases(cfg):
    """The fixed maps where the Hermitian restriction strictly loses value."""
    simple = build_example("simple_nonhermitian")
    for q in (1.0, 2.0, 4.0):
        for p in (1.0, math.inf):
            yield f"simple plain {_label(q, p)}", norm_q_to_p(simple, NormQuery(q, p), cfg).value, 1.0
            yield (
                f"simple hermitian {_label(q, p)}",
                norm_q_to_p(simple, NormQuery(q, p, True), cfg).value,
                2.0 ** (-1.0 / q),
            )
    qinf = build_example("qinf_nonhermitian")
    for p in (1.0, math.inf):
        yield f"qinf plain {_label(math.inf, p)}", norm_q_to_p(qinf, NormQuery(math.inf, p), cfg).value, 1.0
        yield (
            f"qinf hermitian {_label(math.inf, p)}",
            norm_q_to_p(qinf, NormQuery(math.inf, p, True), cfg).value,
            1.0 / math.sqrt(2.0),
        )
    ident, depol = build_example("depolarizing_pair")
    dd = difference(ident, depol)
    for p in (1.5, 2.0, math.inf):
        inv_p = 0.0 if math.isinf(p) else 1.0 / p
        yield f"depolarizing plain {_P_LABELS[p]}", norm_1_to_p(dd, p, config=cfg).value, 1.0
        yield (
            f"depolarizing hermitian {_P_LABELS[p]}",
            norm_1_to_p(dd, p, True, config=cfg).value,
            2.0**inv_p / 2.0,
        )
    phi0, phi1 = build_example("dim4_pair")
    d4 = difference(phi0, phi1)
    root2 = math.sqrt(2.0)
    yield "dim4 plain p=1", norm_1_to_p(d4, 1.0, config=cfg).value, 2.0
    yield "dim4 hermitian p=1", norm_1_to_p(d4, 1.0, True, config=cfg).value, root2
    yield (
        "dim4 hermitian p=1 oracle res=400",
        brute_force_oracle(d4, NormQuery(1.0, 1.0, True), 400),
        root2,
    )


def _transpose_cases(cfg):
    """||T||_p = 1 but ||T (x) I_n||_{1->p} = n^(2/p)/n on n-dimensional inputs."""
    exponents = (1.0, 1.5, 2.0)
    for n in (2, 3):
        T = build_example(f"transpose({n})")
        v = _values(T, {(p, k): NormQuery(1.0, p, False, k) for k in (0, n) for p in exponents}, cfg)
        for p in exponents:
            at = _P_LABELS[p]
            yield f"transpose({n}) plain {at}", v[p, 0], 1.0
            yield f"transpose({n}) stabilized {at}", v[p, n], n ** (2.0 / p) / n


# the trials an exact claim draws and decomposes at once: bounds its memory
_EXACT_CHUNK = 64
_GRID = np.array(_EXPONENT_GRID)
# the grid index of each grid exponent's dual, and monotone_p's (q, p) cases
_DUAL_AT = [_EXPONENT_GRID.index(_DUAL[p]) for p in _EXPONENT_GRID]
_MONOTONE_Q, _MONOTONE_P = zip(*((q, p) for q in range(5) for p in range(q, 5)))


def _groups(keys) -> dict:
    """Each key -> the indices of ``keys`` that hold it, in order."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


def _by_tail(f, stacks) -> list:
    """``[f(a) for a in stacks]`` for an ``f`` that maps each entry along the
    first axis on its own: the stacks of one trailing shape go through one
    ``f`` call on their concatenation."""
    out = [None] * len(stacks)
    for idx in _groups(a.shape[1:] for a in stacks).values():
        res = f(np.concatenate([stacks[i] for i in idx]))
        stop = 0
        for i in idx:
            start, stop = stop, stop + len(stacks[i])
            out[i] = res[start:stop]
    return out


def _grid_norms(stacks) -> list[np.ndarray]:
    """``schatten_norm(M, p)`` for each p on the exponent grid and each matrix
    M of each stack of drawn matrices, one row per matrix: one SVD call per
    matrix shape and one ``_spectrum_pnorms`` call per spectrum length."""
    spectra = _by_tail(lambda a: np.linalg.svd(a, compute_uv=False), stacks)
    return _by_tail(lambda s: np.array(_spectrum_pnorms(s, _EXPONENT_GRID)).T, spectra)


def _clip(x: np.ndarray) -> np.ndarray:
    """``max(0.0, v)`` of each entry v, as Python takes it."""
    return np.where(x > 0.0, x, 0.0)


def _draw_shape(rng) -> tuple[int, int]:
    return int(rng.integers(2, 7)), int(rng.integers(2, 7))


def _duality_table(rng, count):
    """The dual-norm witness attains ||X||_p with a unit dual-norm certificate.
    The X of one shape take one SVD with vectors for their witnesses, and
    one ``schatten_norm`` call for their norms and their witnesses' norms;
    the weights of all spectra of one length are taken at once."""
    drawn = [_random_matrix(rng, *_draw_shape(rng)) for _ in range(count)]
    groups = list(_groups(X.shape for X in drawn).values())
    X = [np.stack([drawn[i] for i in idx]) for idx in groups]
    usv = [np.linalg.svd(x, full_matrices=False) for x in X]
    weights = _by_tail(lambda s: _witness_weights(s, _EXPONENT_GRID), [s for _, s, _ in usv])
    table = np.empty((count, 5))
    for idx, x, (U, _, Vh), w in zip(groups, X, usv, weights):
        y = _witnesses(U, w, Vh)
        norms = schatten_norm(np.concatenate([x[:, None], y], axis=1), _EXPONENT_GRID)
        unit = np.abs(norms[:, range(1, 6), _DUAL_AT] - 1.0)
        attained = [
            [abs(complex(np.vdot(Yp, Xt)) - norm) for Yp, norm in zip(Yt, row)]
            for Xt, Yt, row in zip(x, y, norms[:, 0].tolist())
        ]
        table[idx] = np.where(unit > attained, unit, attained)
    return [{"shape": list(x.shape)} for x in drawn], table


def _hoelder_table(rng, count):
    """|<X, Y>| <= ||X||_p ||Y||_p* for X and Y of one shape."""
    pairs = []
    for _ in range(count):
        n, m = _draw_shape(rng)
        pairs.append(np.stack([_random_matrix(rng, n, m), _random_matrix(rng, n, m)]))
    norms = np.stack(_grid_norms(pairs))
    overlap = np.array([abs(complex(np.vdot(X, Y))) for X, Y in pairs])
    table = _clip(overlap[:, None] - norms[:, 0] * norms[:, 1, _DUAL_AT])
    return [{"shape": list(pair.shape[1:])} for pair in pairs], table


def _block_bounds_table(rng, count):
    """Squared block norms bound the squared full norm from the p-dependent side."""
    fields, drawn, blocks = [], [], []
    for _ in range(count):
        br, bc, h, w = (int(rng.integers(1, 4)) for _ in range(4))
        X = _random_matrix(rng, br * h, bc * w)
        fields.append({"blocks": [br, bc], "block_shape": [h, w]})
        drawn.append(X[None])
        blocks.append(_block_stack(X, br, bc))
    norms = _grid_norms(drawn + blocks)
    bounds = np.array([_block_bounds(*x.tolist(), b.T.tolist()) for x, b in zip(norms, norms[count:])])
    lhs, rhs = bounds[..., 0], bounds[..., 1]
    slack = np.where(_GRID <= 2.0, lhs - rhs, rhs - lhs)
    return fields, np.where(_GRID == 2.0, np.abs(slack), _clip(slack))


def _monotone_p_table(rng, count):
    """||A||_p <= ||A||_q whenever p >= q."""
    drawn = [_random_matrix(rng, *_draw_shape(rng))[None] for _ in range(count)]
    norms = np.concatenate(_grid_norms(drawn))
    table = _clip(norms[:, _MONOTONE_P] - norms[:, _MONOTONE_Q])
    return [{"shape": list(A.shape[1:])} for A in drawn], table


# exact claim -> (its residual table over drawn trials, its case labels)
_P_CASES = [_P_LABELS[p] for p in _EXPONENT_GRID]
_EXACT = {
    "duality": (_duality_table, _P_CASES),
    "hoelder": (_hoelder_table, _P_CASES),
    "block_bounds": (_block_bounds_table, _P_CASES),
    "monotone_p": (
        _monotone_p_table,
        [_QP_LABELS[_EXPONENT_GRID[q], _EXPONENT_GRID[p]] for q, p in zip(_MONOTONE_Q, _MONOTONE_P)],
    ),
}


def _exact_table(claim, rng, trials):
    """The exact claim's trial fields and its trials x cases table of
    residuals, over ``trials`` trials drawn from ``rng`` in trial order,
    ``_EXACT_CHUNK`` trials at a time."""
    table_of = _EXACT[claim][0]
    fields, tables = [], []
    for start in range(0, trials, _EXACT_CHUNK):
        chunk_fields, table = table_of(rng, min(_EXACT_CHUNK, trials - start))
        fields += chunk_fields
        tables.append(table)
    return fields, np.concatenate(tables)


def _table_records(fields, table, labels) -> list[dict]:
    """``_record(i, fields[i], zip(table[i], labels))`` for each row i of a
    table of non-negative residuals in one reduction: a row's first maximum,
    or its first NaN, is its first largest residual."""
    worst, at = table.max(axis=1).tolist(), table.argmax(axis=1).tolist()
    return [
        {"trial": i, **f, "residual": r, "worst_case": _worst_label(r, labels[a])}
        for i, (f, r, a) in enumerate(zip(fields, worst, at))
    ]


def _run_exact(salt, claim, seed, trials, restarts):
    """The exact claim's records over ``trials`` trials on one seeded stream."""
    fields, table = _exact_table(claim, _rng(seed, salt), trials)
    return _table_records(fields, table, _EXACT[claim][1])


def _map_claim(salt, cases, cp):
    return partial(_run_trials, salt, partial(_map_trial, cp, cases))


# claim id -> (tolerance, runner); order fixes the "all" iteration order
_REGISTRY = {
    "theorem1": (2e-3, _map_claim(1, _theorem1_cases, cp=True)),
    "lemma1": (2e-3, _map_claim(2, _lemma1_cases, cp=False)),
    "prop_counterexamples": (2e-3, partial(_run_fixed, 3, _counterexample_cases)),
    "theorem2": (2e-3, _map_claim(4, _theorem2_cases, cp=False)),
    "theorem3": (2e-3, _map_claim(5, _theorem3_cases, cp=False)),
    "transpose_instability": (2e-3, partial(_run_fixed, 6, _transpose_cases)),
    "ahw_fact": (2e-3, _map_claim(7, _ahw_fact_cases, cp=True)),
    "duality": (1e-8, partial(_run_exact, 8, "duality")),
    "hoelder": (1e-9, partial(_run_exact, 9, "hoelder")),
    "block_bounds": (1e-9, partial(_run_exact, 10, "block_bounds")),
    "monotone_p": (1e-10, partial(_run_exact, 11, "monotone_p")),
}


def claim_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def _claim(claim_id: str):
    """The claim's ``(tolerance, runner)``."""
    if claim_id not in _REGISTRY:
        raise InvalidInputError(f"unknown claim id {claim_id!r}; known: {', '.join(_REGISTRY)}")
    return _REGISTRY[claim_id]


def claim_tolerance(claim_id: str) -> float:
    return _claim(claim_id)[0]


def verify(claim_id: str, seed: int = 42, trials: int = 50, restarts: int = 32) -> VerificationReport:
    """Run one claim's suite and report the worst observed residual.

    Claims built on fixed example maps (``prop_counterexamples``,
    ``transpose_instability``) check their fixed case list and ignore
    ``trials``; the reported trial count is always the number of detail
    records produced.
    """
    tolerance, runner = _claim(claim_id)
    seed = require_count(seed, "seed")
    trials = require_count(trials, "trials", 1)
    restarts = require_count(restarts, "restarts", 1)
    details = runner(seed, trials, restarts)
    # a NaN residual is the worst one, and fails the claim
    worst = float(np.max([d["residual"] for d in details], initial=0.0))
    return VerificationReport(
        claim_id=claim_id,
        trials=len(details),
        worst_residual=float(worst),
        tolerance=tolerance,
        passed=bool(worst <= tolerance),
        seed=seed,
        details=tuple(details),
    )
