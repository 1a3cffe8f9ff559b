"""Numeric surveys of the paper's three open questions on representations
and stabilization.

Each survey runs the ascent of :mod:`.optimize` and returns its figures as a
dict for the ``explore`` command; no verdict is attached.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import InvalidInputError, PreconditionError, UnsupportedInstanceError, require_count
from .optimize import NormQuery, OptimizerConfig, _norms, norm_q_to_p, stabilized_norm
from .schatten import format_exponent, require_exponent
from .superop import SuperOp, is_completely_positive, left_cp_map, remix, right_cp_map


def explore_open_question(
    phi: SuperOp,
    question: int,
    q=1.0,
    p=1.0,
    samples: int = 20,
    config: OptimizerConfig | None = None,
) -> dict:
    """Numeric survey data for the three representation/stabilization
    questions; exploratory output only, no verdict is attached.

    Question 1 samples invertible re-mixings of an equivalent Kraus pair
    (identity mixer first) and tracks the smallest observed product
    ``||Phi_L||^H_{1->p} * ||Phi_R||^H_{1->p}`` against the squared
    stabilized norm.  Questions 2 and 3 tabulate ``||Phi (x) I_k||_{q->p}``
    for ancilla sizes k = 1 .. dim_in + 2; question 3 requires a completely
    positive input and adds the Hermitian-restricted column.
    """
    cfg = config if config is not None else OptimizerConfig()
    if phi.dim_in > 3 or phi.dim_out > 3:
        raise UnsupportedInstanceError("exploration is limited to dimensions <= 3")
    q = require_exponent(q)
    p = require_exponent(p)
    question = require_count(question, "question")
    samples = require_count(samples, "samples", 1)
    if question == 1:
        stab = stabilized_norm(phi, p, hermitian_restricted=False, config=cfg).value
        herm = NormQuery(1.0, p, hermitian_restricted=True)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 101]))
        n = phi.n_terms
        records = []
        for i in range(samples):
            if i == 0:
                mixer = np.eye(n, dtype=np.complex128)
            else:
                mixer = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                for _ in range(10):
                    if np.linalg.cond(mixer) < 1e4:
                        break
                    mixer = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            mixed = remix(phi, mixer)
            lv = norm_q_to_p(left_cp_map(mixed), herm, cfg).value
            rv = norm_q_to_p(right_cp_map(mixed), herm, cfg).value
            records.append({"sample": i, "left": lv, "right": rv, "product": lv * rv})
        return {
            "question": 1,
            "p": format_exponent(p),
            "stabilized_squared": stab * stab,
            "min_product": min(r["product"] for r in records),
            "samples": records,
        }
    if question in (2, 3):
        if question == 3 and not is_completely_positive(phi):
            raise PreconditionError("question 3 concerns completely positive maps")
        profile = []
        for k in range(1, phi.dim_in + 3):
            query = NormQuery(q, p, False, stabilize_dim=k)
            # unreduced: the profile is a check on ancilla sizes, not a lookup
            row = {"ancilla": k, "value": _norms(phi, [query], cfg, reduce=False)[0].value}
            if question == 3:
                herm = replace(query, hermitian_restricted=True)
                row["hermitian_value"] = _norms(phi, [herm], cfg, reduce=False)[0].value
            profile.append(row)
        return {
            "question": question,
            "q": format_exponent(q),
            "p": format_exponent(p),
            "profile": profile,
        }
    raise InvalidInputError(f"question must be 1, 2, or 3, got {question}")
