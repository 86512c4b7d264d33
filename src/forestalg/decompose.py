"""Constructive wreath decompositions, represented as cascades.

A cascade is a list of stages; stage i assigns a vertical element of its
target to each pair (letter, values of earlier stages on the node's forest
of strict descendants).  Evaluating a cascade on a forest is exactly
evaluating the tensored homomorphism into the iterated wreath product, but
the product's vertical monoid is never materialized: all factoring checks
run on the reachable joint values, which is exact.

Produced cascades:
  - definiteness degree k: one group of parallel two-element stages with
    both constants per depth level, each stage watching one root label;
  - combined: one recursion peels the minimal class with a depth-k group,
    or a subminimal class with a depth-k group plus one alarm stage that
    detects collapse to the absorbing element.  The alarm stage reads each
    state's value off the exact joint image of the cascade so far with the
    input, less its absorbing values.
  - EF targets: the same recursion without depth-k groups, since every
    reachability class of an EF-algebra is one element.  The result is a
    chain of two-element stages with constant-or-identity vertical maps,
    one alarm stage per peeled subminimal element.
"""

from dataclasses import dataclass, field
from itertools import islice
from operator import or_

from . import terms
from .algebra import u1, u2
from .decide import is_ef_algebra, nonconfusion
from .defk import definiteness_degree
from .errors import (AlphabetMismatchError, InternalError, NotEFAlgebra,
                     NotKDefinite, NotNonconfusing, SizeLimitError,
                     StructuralError)
from .hom import generated, image_restrict
from .joint import TensorEvaluator, determines, evaluate, image
from .reach import (class_tag_names, quotient_hom, reachability,
                    subminimal_factorization)

DEFAULT_MAX_SIZE = 4096

U1_STAGE = "u1"
ONE_DEFINITE_STAGE = "one_definite"
OTHER_STAGE = "other"

# the stage algebras on H = {0, inf}: u1's V is {1, cinf}, u2's {1, cinf, c0}
_U1 = u1()
_U1_CINF = _U1.V.names.index("cinf")
_U2 = u2()
_U2_CINF, _U2_C0 = map(_U2.V.names.index, ("cinf", "c0"))


@dataclass
class Stage:
    """One cascade stage.  ``letters`` maps (letter, values of the first
    ``prefix_len`` stages) to a vertical index of ``target``.  Indices below
    ``len(target.generators)`` are read from the generator rows, so a stage
    that assigns generators, as every produced stage does, never closes
    the target's V."""

    kind: str
    target: object
    prefix_len: int
    letters: dict = field(repr=False)

    def describe(self):
        return "%s stage (%s), reads %d earlier coordinates" % (
            self.kind, self.target.summary(), self.prefix_len)


class Cascade:
    """A list of stages, evaluated as one evaluator (see joint).

    A state is an int in which stage i owns a bit field: h in the stage's
    H is coded as {g != inf : h + g != g}, which on an idempotent,
    commutative H (append() checks) is injective and sends + to |.  A
    letter step is one lookup per stage under (letter, prefix bits).
    Steps are memoized per (letter, state); append() keeps the last
    closure's memo for its stages, as a stage reads only the letter, its
    own field and earlier fields.  Two threads stepping one cascade may
    compute a memo entry twice, identically; append() must not overlap a
    step.  decode() and encode() convert to the tuples of element indices
    that eval(), reachable_states(), joint_image() and factor_map() use.
    """

    def __init__(self, alphabet, max_size=DEFAULT_MAX_SIZE):
        self.alphabet = tuple(sorted(set(alphabet), key=terms.label_key))
        self.stages = []
        self.max_size = max_size
        self._states = None
        self._ends = [0]       # _ends[i]: bits held by the first i stages
        self._codes = []       # per stage: element -> code, in place
        self._masks = []       # per stage: its field
        self._letters = dict(zip(self.alphabet, range(len(self.alphabet))))
        # per stage: (prefix mask, field mask, maps by key), where the key
        # of (letter, state) is state * len(alphabet) + the letter's index
        self._steps = []
        self._memo = {}          # key of (letter, state) -> step
        self._kept = (0, 0, {})  # (m, mask of m stages, memo on m stages)

    def __len__(self):
        return len(self.stages)

    def append(self, stage):
        """Add a stage that reads at most the stages before it."""
        n = len(self.stages)
        op = stage.target.H.op
        elements = range(len(op))
        if op != tuple(zip(*op)) or list(map(tuple.__getitem__, op, elements)) != list(elements):
            raise StructuralError(
                "cascade stage %d: H is not idempotent and commutative" % n)
        width = self._ends[n]
        code, bit = [0] * len(op), 1 << width
        for g, col in enumerate(zip(*op)):      # col[h] is h + g
            if col.count(g) < len(col):         # g is not inf: it gets a bit
                for h, hg in enumerate(col):
                    if hg != g:
                        code[h] |= bit
                bit <<= 1
        maps = {}       # per vertical element: code -> its image's code
        for v in set(stage.letters.values()):
            maps[v] = dict(zip(code, map(code.__getitem__, stage.target.vrow(v))))
        keys, size = {}, len(self.alphabet)
        for key, v in stage.letters.items():
            if key[0] in self._letters:
                keys[self.encode(islice(key, 1, None)) * size
                     + self._letters[key[0]]] = maps[v]
        if self._memo:
            self._kept = (n, (1 << width) - 1, self._memo)
            self._memo = {}
        mask = bit - (1 << width)
        self._steps.append(((1 << self._ends[stage.prefix_len]) - 1, mask, keys))
        self.stages.append(stage)
        self._ends.append(bit.bit_length() - 1)
        self._codes.append(code)
        self._masks.append(mask)
        self._states = None

    def encode(self, state):
        """The int of a tuple state or of its first stages' values."""
        return sum(map(list.__getitem__, self._codes, state))

    def decode(self, state):
        """The tuple of an int state: one element index per stage."""
        # via a list, the tuple is built at its length: tuple() of an
        # iterator over-allocates and shrinks, so freed decoded tuples
        # would pile up in the interpreter's per-length free lists
        return tuple(list(map(list.index, self._codes,
                              map(state.__and__, self._masks))))

    def zero_state(self):
        return 0

    plus_state = staticmethod(or_)

    def letter_action(self, a, state):
        size, i = len(self.alphabet), self._letters[a]
        got = self._memo.get(state * size + i)
        if got is None:
            m, mask, kept = self._kept
            got = kept.get((state & mask) * size + i)
            if got is None:
                got = m = 0
            for read, own, maps in self._steps[m:]:
                got |= maps[(state & read) * size + i][state & own]
            self._memo[state * size + i] = got
        return got

    def eval(self, forest):
        return self.decode(evaluate(self, forest))

    def reachable_states(self):
        if self._states is None:
            self._states = sorted(map(self.decode, image(
                self, self.alphabet, self.max_size, "cascade states")))
        return self._states

    def joint_image(self, hom):
        """Exact {(cascade state of s, hom value of s)} closure."""
        if tuple(sorted(set(hom.alphabet), key=terms.label_key)) != self.alphabet:
            raise AlphabetMismatchError("cascade and homomorphism alphabets differ")
        cap = self.max_size * hom.target.H.size
        states, values = zip(*image(TensorEvaluator(self, hom, lambda a, x: a),
                                    self.alphabet, cap, "cascade joint image"))
        return list(zip(map(self.decode, states), values))

    def factors(self, hom):
        """Does the cascade value determine the hom value?  Exact."""
        witness = determines(self.joint_image(hom))[1]
        return witness is None, witness

    def factor_map(self, hom):
        mapping = determines(self.joint_image(hom))[0]
        if mapping is None:
            raise InternalError("cascade does not factor the homomorphism")
        return mapping

    def describe(self):
        lines = ["cascade over {%s} with %d stages"
                 % (",".join(terms.print_label(a) for a in self.alphabet),
                    len(self.stages))]
        for i, st in enumerate(self.stages):
            lines.append("  %d: %s" % (i, st.describe()))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Tensoring two homomorphisms

def tensor_cascade(alpha, beta, max_size=DEFAULT_MAX_SIZE):
    """The two-stage cascade of alpha with beta over the tagged alphabet.

    beta's letters must be pairs (a, element name of alpha's target); this
    is the alphabet produced by relabeling through alpha.  The cascade holds
    at most ``max_size`` states.
    """
    alg = alpha.target
    expected = {(a, alg.hname(h)) for a in alpha.alphabet
                for h in range(alg.H.size)}
    if set(beta.alphabet) != expected:
        raise AlphabetMismatchError(
            "second factor must be over letter/value pairs of the first")
    casc = Cascade(alpha.alphabet, max_size)
    casc.append(Stage(OTHER_STAGE, alg, 0,
                      {(a,): alpha.letter(a) for a in casc.alphabet}))
    letters = {(a, h): beta.letter((a, alg.hname(h)))
               for a in casc.alphabet for h in range(alg.H.size)}
    casc.append(Stage(OTHER_STAGE, beta.target, 1, letters))
    return casc


def wreath_compose(alpha, beta, max_size=DEFAULT_MAX_SIZE):
    """The tensored homomorphism, materialized on its generated subalgebra.

    Horizontal values are the reachable pairs (alpha value, beta value of
    the relabeling); the vertical monoid is generated by the letter actions
    and insertions.  The full wreath vertical monoid is never built.  At
    most ``max_size`` states are held before SizeLimitError.
    """
    casc = tensor_cascade(alpha, beta, max_size)
    states = sorted(image(casc, casc.alphabet, max_size,
                          "wreath composition carrier"), key=casc.decode)
    names = ["(%s,%s)" % (alpha.target.hname(s[0]), beta.target.hname(s[1]))
             for s in map(casc.decode, states)]
    return generated(casc.alphabet, states, casc.letter_action,
                     casc.plus_state, casc.zero_state(), names)


# ---------------------------------------------------------------------------
# Depth-k groups of two-constant stages

def _append_kdef_group(casc, view, k):
    """Parallel two-constant stages per depth level; stage for node label c
    reports whether some root of the viewed relabeling carries c.

    A node's label is its viewed letter and the depth-(level-1) class of
    its children.  That class is read off the previous level's stages: it
    is the tuple of the labels whose stage is at inf, in canonical key
    order, and () at level 1.

    A level's joint carrier is a subset of label sets, so the state space
    after the group is bounded by |states| * 2^|occurring labels|; the bound
    is checked up front, which is conservative but avoids crawling an
    exponential closure just to discover the overflow.
    """
    inf = _U2.absorbing()
    occurring, prefix = [], len(casc.stages)
    for level in range(1, k + 1):
        states = casc.reachable_states()
        labels = {(a,) + s: (view(a, s), tuple(
                      c for c, x in zip(occurring, s[prefix:]) if x == inf))
                  for a in casc.alphabet for s in states}
        occurring = sorted(set(labels.values()), key=terms.tree_key)
        if len(states) << len(occurring) > casc.max_size:
            raise SizeLimitError(
                "depth-%d definite level carrier" % level, casc.max_size)
        prefix = len(casc.stages)
        for c in occurring:
            casc.append(Stage(ONE_DEFINITE_STAGE, _U2, prefix,
                              {key: _U2_CINF if label == c else _U2_C0
                               for key, label in labels.items()}))


def decompose_kdefinite(alpha, k, max_size=DEFAULT_MAX_SIZE):
    """Expand a k-definite homomorphism into two-constant stages."""
    alpha = image_restrict(alpha)
    degree = definiteness_degree(alpha)
    if degree is None or degree > k:
        raise NotKDefinite(degree, k)
    casc = Cascade(alpha.alphabet, max_size)
    _append_kdef_group(casc, lambda a, s: a, k)
    ok, witness = casc.factors(alpha)
    if not ok:
        raise InternalError("definite cascade fails to factor: %r" % (witness,))
    return casc


# ---------------------------------------------------------------------------
# EF and combined decompositions

def decompose_ef(alpha, max_size=DEFAULT_MAX_SIZE):
    """Chain of two-element stages factoring any map onto an EF-algebra.

    Raises NotEFAlgebra, with the violated identity, otherwise.  The
    combined recursion below builds it: every reachability class of an
    EF-algebra is one element, so each peel needs no depth-k group, and
    its alarm stage alone adds the peeled element.
    """
    return _decompose(alpha, max_size, ef=True)


def decompose_efex(alpha, max_size=DEFAULT_MAX_SIZE):
    """Cascade of two-element and two-constant stages for a nonconfusing map.

    Recursion on the horizontal size: with the minimum trivial, several
    subminimal classes split into a product of weak quotients.  Otherwise
    the fat minimal class, or else the single subminimal class, is peeled
    by its strict quotient plus a depth-k group; a peeled subminimal class
    adds one alarm stage that fires where a node's tree maps to the
    absorbing element.  Raises NotNonconfusing, with the report, on a
    confusing map.
    """
    return _decompose(alpha, max_size, ef=False)


def _decompose(alpha, max_size, ef):
    alpha = image_restrict(alpha)
    if ef:
        ok, violation = is_ef_algebra(alpha.target)
        if not ok:
            raise NotEFAlgebra(violation)
    casc = Cascade(alpha.alphabet, max_size)
    _efex_rec(casc, alpha, ef)
    ok, witness = casc.factors(alpha)
    if not ok:
        raise InternalError("%s cascade fails to factor: %r"
                            % ("EF" if ef else "combined", witness))
    return casc


def _efex_rec(casc, alpha, ef):
    """Peel alpha onto casc.  With ef, alpha maps onto an EF-algebra: a
    two-element image is one stage on the letter alone, and no peel needs
    a depth-k group or the nonconfusion report."""
    alg = alpha.target
    if alg.H.size == 1:
        return
    if ef and alg.H.size == 2:
        # the letter alone decides, so the stage reads no coordinates
        inf = alg.absorbing()
        casc.append(Stage(U1_STAGE, _U1, 0, {
            (a,): _U1_CINF if alpha.row(a)[alg.zero] == inf else _U1.one
            for a in casc.alphabet}))
        return
    rs = reachability(alg)
    if not ef:
        report = nonconfusion(alpha, rs)
        if not report.nonconfusing:
            raise NotNonconfusing(report)
    fat = len(rs.classes[rs.min_class]) > 1
    if not fat and len(rs.subminimal) > 1:
        for weak in subminimal_factorization(alpha, rs):
            _efex_rec(casc, weak, ef)
        return
    if not fat and not rs.subminimal:
        raise InternalError("nontrivial algebra without subminimal classes")
    ci = rs.min_class if fat else rs.subminimal[0]
    qhom, (reps, _) = quotient_hom(alpha, ci, "strict", rs)
    _efex_rec(casc, qhom, ef)
    if not ef:
        # a node is tagged as its children's quotient value, read off the
        # cascade so far, by that value's representative in alpha's H
        tags, rho, n = class_tag_names(alpha, ci, rs), casc.factor_map(qhom), len(casc.stages)
        _append_kdef_group(casc, lambda a, s: (a, tags[reps[rho[s[:n]]]]),
                           max(1, report.traces[ci].k))
    if not fat:
        _append_alarm_stage(casc, alpha)


def _append_alarm_stage(casc, alpha):
    """Two-element stage firing at nodes whose tree maps to absorbing.

    The cascade so far determines the value of every non-absorbing forest:
    the strict quotient above the peeled class; inside it, the depth-k
    group and nonconfusion, or, in an EF-algebra, the class being the
    single peeled element.  So the exact joint image, less its absorbing
    values, maps each state to a value; a state outside that map is
    reached by absorbing forests only.
    """
    inf = alpha.target.absorbing()
    value, clash = determines([(s, h) for s, h in casc.joint_image(alpha)
                               if h != inf])
    if clash is not None:
        raise InternalError("nonconfusion left an ambiguous class value: %r"
                            % (clash,))
    _append_u1_stage(casc, lambda a, s: s not in value
                     or alpha.row(a)[value[s]] == inf)


def _append_u1_stage(casc, fires):
    """Two-element stage over every reachable state: letter a at a node
    whose strict descendants reach state s acts as cinf if fires(a, s),
    and as the identity otherwise."""
    states = casc.reachable_states()
    letters = {(a,) + s: _U1_CINF if fires(a, s) else _U1.one
               for a in casc.alphabet for s in states}
    casc.append(Stage(U1_STAGE, _U1, len(casc.stages), letters))
