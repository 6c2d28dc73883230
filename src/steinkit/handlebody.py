"""Stein Kirby data: linking forms of Stein handle decompositions.

A handlebody is recorded as a 1-handle count plus one record per 2-handle
(tb, r, framing) together with the symmetric linking matrix. The Stein
condition pins framing = tb - 1 on every 2-handle; with no 1-handles the
rotation numbers form a characteristic vector of the linking form.
The records are ``NamedTuple``s, and ``SteinKirbyData`` checks these
conditions when built.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .errors import (
    AsymmetricLinking, ExcludedCase, FramingMismatch, InvalidParams, InvariantViolation,
    MalformedToken, ParityViolation, WorkBudgetExceeded, brief, integer,
)
from .legendrian import TorusKnotParams

# Most 2-handles k, and most k times the bit length of the largest framing,
# rotation or linking number, in a Kirby file: ``linalg.form`` takes k^3 / 6
# steps on entries of about k times that many bits. At both, ``handlebody
# analyze`` of a dense form takes 1.2 s (Python 3.11, one x86-64 core).
HANDLE_BUDGET = 150
BIT_BUDGET = 1000

# integers on each kind of Kirby file line
_TOKENS = {"1-handles": 1, "handle": 3, "lk": 3}


class TwoHandle(NamedTuple):
    tb: int
    r: int
    framing: int


class _Kirby(NamedTuple):
    one_handles: int
    two_handles: tuple[TwoHandle, ...]
    linking: tuple[tuple[int, ...], ...]  # symmetric, diagonal = framings


class SteinKirbyData(_Kirby):
    __slots__ = ()

    def __new__(cls, one_handles: int, two_handles, linking):
        two_handles = tuple(two_handles)
        linking = tuple(tuple(row) for row in linking)
        if one_handles < 0:
            raise InvalidParams("negative 1-handle count")
        k = len(two_handles)
        if len(linking) != k or any(len(row) != k for row in linking):
            raise AsymmetricLinking(
                f"linking matrix shape does not match {k} 2-handles"
            )
        for i, h in enumerate(two_handles):
            if h.framing != h.tb - 1:
                raise FramingMismatch(
                    f"handle {i}: framing {h.framing} != tb - 1 = {brief(h.tb - 1)}"
                )
            if linking[i][i] != h.framing:
                raise AsymmetricLinking(
                    f"diagonal entry {linking[i][i]} != framing {h.framing}"
                )
            for j in range(i):
                if linking[i][j] != linking[j][i]:
                    raise AsymmetricLinking(f"entries ({i},{j}) and ({j},{i}) differ")
            if one_handles == 0 and (h.r - linking[i][i]) % 2 != 0:
                raise ParityViolation(
                    f"handle {i}: r = {h.r} and framing {h.framing} differ in parity"
                )
        return tuple.__new__(cls, (one_handles, two_handles, linking))


class FormAnalysis(NamedTuple):
    chi: int
    b2: int
    det: int
    signature: int
    c1_squared: Fraction | None  # present iff no 1-handles and det != 0
    theta_boundary: int | None  # present iff no 1-handles and |det| = 1


class NucleusData(NamedTuple):
    kirby: SteinKirbyData
    fiber_genus: int  # l, where 2l = (p-1)(q-1)
    singular_fibers: int
    c1_pd: tuple[int, int]  # coefficients on the section and fiber classes
    c1_squared: int
    boundary: brieskorn.OrientedBrieskorn
    analysis: FormAnalysis  # of ``kirby``


def from_front(diagram: fronts.FrontDiagram) -> SteinKirbyData:
    """Kirby data of the Stein handlebody on a front: one 2-handle per
    component with framing tb - 1, linking matrix from the front."""
    from . import fronts  # only this function traces a diagram
    handles = []
    for c in fronts.components(diagram):
        inv = fronts.invariants(diagram, c.index)
        handles.append(TwoHandle(tb=inv.tb, r=inv.r, framing=inv.tb - 1))
    linking = fronts.linking_matrix(diagram)
    for i, h in enumerate(handles):
        linking[i][i] = h.framing
    return SteinKirbyData(one_handles=0, two_handles=handles, linking=linking)


def analyze(data: SteinKirbyData) -> FormAnalysis:
    """Euler characteristic, determinant, signature, and (when defined)
    c1^2 and the boundary theta invariant of the handlebody."""
    k = len(data.two_handles)
    chi = 1 - data.one_handles + k
    det, sig, c1_squared = linalg.form(data.linking, [h.r for h in data.two_handles])
    theta = None
    if data.one_handles != 0:
        c1_squared = None
    elif abs(det) == 1:
        if c1_squared.denominator != 1:
            raise InvariantViolation(f"c1^2 = {brief(c1_squared)} on a unimodular form")
        c1_int = c1_squared.numerator
        if (c1_int - sig) % 8 != 0:
            raise InvariantViolation(f"c1^2 = {brief(c1_squared)} != sigma = {sig} mod 8")
        theta = c1_int - 2 * chi - 3 * sig
    return FormAnalysis(
        chi=chi, b2=k, det=det, signature=sig,
        c1_squared=c1_squared, theta_boundary=theta,
    )


def nucleus(p: int, q: int, n: int) -> NucleusData:
    """Nucleus of the compactified (p, q, npq-1) Milnor fibration.

    For n >= 2 this is the handlebody on T(p,q) with framing 0 plus a
    -n-framed Legendrian meridian; for n = 1 the section is blown down,
    leaving a single +1-framed handle on T(p,q). The boundary is
    -Sigma(p, q, npq - 1), the result of +1/n surgery on T(p,q).

    ``analysis`` is ``analyze(kirby)``. This raises ``InvariantViolation``
    unless its c1^2 is the pairing of ``c1_pd`` (plus 1, for the blow-down,
    when n = 1) and its theta is minus the theta of the Milnor fiber,
    which Sigma(p, q, npq - 1) bounds with the opposite orientation.
    """
    from . import brieskorn  # only this function names a Brieskorn sphere
    boundary = brieskorn.surgery_to_brieskorn(brieskorn.SurgeryDescription(p, q, n, 1))
    l = TorusKnotParams(p, q).l
    if n == 1:
        # tb = 2 is 2l - 3 up zig-zags below the maximal tb = 2l - 1 of
        # T(p,q), and every valid (p, q) but (2, 3) has l >= 2
        if (p, q) == (2, 3):
            raise ExcludedCase(
                "Sigma(2,3,5) admits no negative tight contact structure"
            )
        kirby = SteinKirbyData(
            one_handles=0,
            two_handles=(TwoHandle(tb=2, r=3 - 2 * l, framing=1),),
            linking=((1,),),
        )
    else:
        kirby = SteinKirbyData(
            one_handles=0,
            two_handles=(
                TwoHandle(tb=1, r=2 - 2 * l, framing=0),
                TwoHandle(tb=1 - n, r=2 - n, framing=-n),
            ),
            linking=((0, 1), (1, -n)),
        )
    a, b = c1_pd = (2 - 2 * l, 2 + n * (1 - 2 * l))
    # the pairing in the (section, fiber) basis: section^2 = -n, section.fiber = 1
    c1_squared = -n * a * a + 2 * a * b
    analysis = analyze(kirby)
    if analysis.c1_squared != c1_squared + (1 if n == 1 else 0):
        raise InvariantViolation(
            f"c1^2 = {brief(analysis.c1_squared)} of the Kirby data, "
            f"{brief(c1_squared)} from c1_pd for n = {brief(n)}"
        )
    theta = -brieskorn.milnor_invariants(boundary.triple).theta_boundary
    if analysis.theta_boundary != theta:
        raise InvariantViolation(
            f"theta = {brief(analysis.theta_boundary)} of the Kirby data, "
            f"{brief(theta)} from the Milnor fiber of Sigma{brief(boundary.triple)}"
        )
    return NucleusData(
        kirby=kirby,
        fiber_genus=l,
        singular_fibers=n * p * q,
        c1_pd=c1_pd,
        c1_squared=c1_squared,
        boundary=boundary,
        analysis=analysis,
    )


def parse_kirby(text: str) -> SteinKirbyData:
    """Parse the kirby file format.

    ``1-handles <n>``, then ``handle tb=<int> r=<int> framing=<int>`` lines,
    then ``lk <i> <j> <int>`` lines for i < j, at most one per pair; ``#``
    starts a comment. Diagonal linking entries are implied by the framings.
    A file over ``HANDLE_BUDGET`` or ``BIT_BUDGET`` is ``WorkBudgetExceeded``.
    """
    one_handles = None
    handles: list[TwoHandle] = []
    links: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tag, *tokens = line.split()
        if len(tokens) != _TOKENS.get(tag):
            raise MalformedToken(f"line {lineno}: {raw.strip()!r}")
        if tag == "handle":
            keys, _, tokens = zip(*(t.partition("=") for t in tokens))
        try:
            values = list(map(integer, tokens))
        except ValueError as exc:
            raise MalformedToken(f"line {lineno}: {exc}") from None
        if tag == "1-handles":
            if one_handles is not None:
                raise MalformedToken(f"line {lineno}: duplicate 1-handles line")
            (one_handles,) = values
        elif tag == "handle":
            fields = dict(zip(keys, values))
            if set(fields) != {"tb", "r", "framing"}:
                raise MalformedToken(f"line {lineno}: {raw.strip()!r}")
            handles.append(TwoHandle(**fields))
        else:
            i, j, value = values
            if not 0 <= i < j:
                raise MalformedToken(f"line {lineno}: need 0 <= i < j")
            if (i, j) in links:
                raise MalformedToken(f"line {lineno}: duplicate lk {i} {j} line")
            links[i, j] = value
    k = len(handles)
    if k > HANDLE_BUDGET:
        raise WorkBudgetExceeded(f"{k} 2-handles, more than {HANDLE_BUDGET}")
    entries = [*links.values(), *(v for h in handles for v in (h.r, h.framing))]
    bits = max((v.bit_length() for v in entries), default=0)
    if k * bits > BIT_BUDGET:
        raise WorkBudgetExceeded(f"{k} 2-handles times {bits}-bit entries is over {BIT_BUDGET}")
    linking = [[0] * k for _ in range(k)]
    for i in range(k):
        linking[i][i] = handles[i].framing
    for (i, j), value in links.items():
        if j >= k:
            raise MalformedToken(f"lk {i} {j} out of range for {k} handles")
        linking[i][j] = linking[j][i] = value
    return SteinKirbyData(one_handles=one_handles or 0, two_handles=handles, linking=linking)

