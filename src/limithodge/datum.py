"""The monodromy datum of the local model, and the built-in corpus.

A datum is a weight, a commuting pair of nilpotent logarithms (N₁, N₂)
and, optionally, a Hodge filtration, a polarization and the bigraded model
it came from.  Its constructor certifies the pair and the sizes of the
extras.  This module loads ``exactla`` and ``weightfilt`` only; ``sl2rep``
loads when a corpus label is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .exactla import ExactMatrix, kron
from .weightfilt import commuting_check, nilpotency_check

if TYPE_CHECKING:
    from .exactla import Filtration
    from .sl2rep import Model


@dataclass(frozen=True)
class MonodromyDatum:
    """Local degeneration data: two commuting nilpotents plus optional extras.

    ``hodge`` and ``polarization`` are carried for consumers that need
    them (mixed-Hodge checks, metrics); ``model`` is the bigraded model
    the datum came from, when there is one — it supplies the σ/α frame
    for the Hodge-bundle flavour of the stalk complex.  Entries in
    Q(i) carry their rational structure implicitly.
    """

    weight: int
    n1: ExactMatrix
    n2: ExactMatrix
    hodge: Filtration | None = None
    polarization: ExactMatrix | None = None
    model: Model | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.n1.rows != self.n1.cols or self.n2.rows != self.n2.cols:
            raise ValueError("monodromy logarithms must be square")
        if self.n1.rows != self.n2.rows:
            raise ValueError("monodromy logarithms must act on the same space")
        dim = self.n1.rows
        if self.hodge is not None and self.hodge.ambient_dim != dim:
            raise ValueError(f"hodge (F) has ambient dimension {self.hodge.ambient_dim}, "
                             f"not {dim}")
        pol = self.polarization
        if pol is not None and (pol.rows, pol.cols) != (dim, dim):
            raise ValueError(f"polarization (S) is {pol.rows}x{pol.cols}, not {dim}x{dim}")
        if self.model is not None and self.model.dim != dim:
            raise ValueError(f"model has dimension {self.model.dim}, not {dim}")
        nilpotency_check(self.n1)
        nilpotency_check(self.n2)
        commuting_check([self.n1, self.n2])

    @property
    def dimension(self) -> int:
        return self.n1.rows

    @staticmethod
    def from_model(model: Model, label: str = "") -> "MonodromyDatum":
        n1, n2 = model.action.nminus
        return MonodromyDatum(
            weight=model.weight,
            n1=n1,
            n2=n2,
            hodge=model.hodge_filtration(),
            polarization=model.polarization,
            model=model,
            label=label,
        )


def _ad_matrix(n: ExactMatrix) -> ExactMatrix:
    """Matrix of X ↦ NX - XN on End(H) in the row-major matrix-unit basis."""
    one = ExactMatrix.identity(n.rows)
    return kron(n, one) - kron(one, n.transpose())


def end_datum(datum: MonodromyDatum) -> MonodromyDatum:
    """The induced datum on End(H): weight 0, logarithms ad(N_i)."""
    return MonodromyDatum(
        weight=0,
        n1=_ad_matrix(datum.n1),
        n2=_ad_matrix(datum.n2),
        label=f"End({datum.label})" if datum.label else "End",
    )


# ----------------------------------------------------------------------
# the shared test corpus


# label -> (m, n) of the split model S(m)⊗S(n), and the End data with their base labels
_CORPUS_MODELS = {"trivial": (0, 0), "jordan2-t1": (1, 0), "jordan2-t2": (0, 1),
                  "s11": (1, 1), "s21": (2, 1)}
_CORPUS_END = {f"End({base})": base for base in ("jordan2-t1", "s11")}


def corpus_entry(label: str) -> MonodromyDatum | None:
    """The corpus datum with this label, built alone, or None if there is none."""
    if label in _CORPUS_MODELS:
        from .sl2rep import build_model

        return MonodromyDatum.from_model(build_model("S", *_CORPUS_MODELS[label]), label=label)
    if label in _CORPUS_END:
        return end_datum(corpus_entry(_CORPUS_END[label]))
    return None


def standard_corpus(include_end: bool = True) -> list[MonodromyDatum]:
    """The documented exercise set: split models plus their End data."""
    data = {label: corpus_entry(label) for label in _CORPUS_MODELS}
    ends = [end_datum(data[base]) for base in _CORPUS_END.values()] if include_end else []
    return [*data.values(), *ends]
