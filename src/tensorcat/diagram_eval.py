"""String-diagram language: parsing, typechecking, numerical evaluation.

Morphisms between tensor words of simples are stored blockwise over the
total channel c, as matrices in orthonormal left-associated fusion-path
bases.  A path for the word (w_1, ..., w_n) at channel c is the tuple
(u_1, ..., u_n) of intermediate channels with u_1 = w_1, N^{u_k}_{u_{k-1} w_k} = 1
and u_n = c; paths are ordered lexicographically.

Grammar of the expression language::

    expr   := term ('.' term)*          composition, right-to-left
    term   := factor ('*' factor)*      horizontal tensor
    factor := atom Dagger*              postfix dagger
    atom   := '(' expr ')'
            | 'id' '[' labels ']' | 'braid' '[' a ',' b ']'
            | 'ibraid' '[' a ',' b ']' | 'cup' '[' a ']' | 'cap' '[' a ']'
            | NAME                      generator from the environment

Cups and caps carry the spherical normalization: the closed loop of a
simple a evaluates to d_a.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .category_data import CategoryData
from .errors import PreconditionError, StructuralError
from .fusion_ring import FusionRing

__all__ = [
    "ObjectWord", "MorphismValue", "DiagramExpr", "ParseError", "TypeError_",
    "parse_diagram", "typecheck", "evaluate", "categorical_trace",
    "paths", "identity_morphism", "braid_morphism", "inverse_braid_morphism",
    "cup_morphism", "cap_morphism", "scalar_generator", "path_vector",
    "insert", "compose_values", "tensor_values", "dagger_value",
]

DEFAULT_MAX_WORD = 8

ObjectWord = tuple  # tuple of simple label indices


def paths(ring: FusionRing, word) -> dict:
    """Map total channel c -> ordered list of fusion paths of the word."""
    word = tuple(word)
    byc = {}
    if not word:
        byc[0] = [()]
    else:
        partial = [(word[0],)]
        for w in word[1:]:
            partial = [p + (c,) for p in partial for c in ring.channels(p[-1], w)]
        for p in partial:
            byc.setdefault(p[-1], []).append(p)
    return {c: sorted(ps) for c, ps in byc.items()}


@dataclass
class MorphismValue:
    """Blockwise matrices of a morphism between two object words."""

    source: ObjectWord
    target: ObjectWord
    blocks: dict  # c -> complex matrix (target paths) x (source paths)

    def block(self, ring, c):
        if c in self.blocks:
            return self.blocks[c]
        nt = len(paths(ring, self.target).get(c, []))
        ns = len(paths(ring, self.source).get(c, []))
        return np.zeros((nt, ns), dtype=complex)

    def dagger(self):
        return MorphismValue(source=self.target, target=self.source,
                             blocks={c: m.conj().T for c, m in self.blocks.items()})


def identity_morphism(cd: CategoryData, word) -> MorphismValue:
    word = tuple(word)
    pby = paths(cd.ring, word)
    return MorphismValue(source=word, target=word,
                         blocks={c: np.eye(len(ps), dtype=complex) for c, ps in pby.items()})


def braid_morphism(cd: CategoryData, a, b) -> MorphismValue:
    """sigma_{a,b}: [a,b] -> [b,a], the scalar R^{ab}_c on each channel c."""
    ring = cd.ring
    cs = ring.channels(a, b)
    if cs != ring.channels(b, a):
        raise StructuralError("braiding requires N^c_{ab} = N^c_{ba}")
    return MorphismValue(source=(a, b), target=(b, a),
                         blocks={c: np.array([[cd.rval(a, b, c)]]) for c in cs})


def inverse_braid_morphism(cd: CategoryData, a, b) -> MorphismValue:
    """sigma_{a,b}^{-1}: [b,a] -> [a,b]."""
    ring = cd.ring
    cs = ring.channels(a, b)
    return MorphismValue(source=(b, a), target=(a, b),
                         blocks={c: np.array([[1.0 / cd.rval(a, b, c)]]) for c in cs})


def cup_morphism(cd: CategoryData, a) -> MorphismValue:
    abar = cd.ring.dual[a]
    s = np.sqrt(cd.dims.dims[a])
    return MorphismValue(source=(), target=(a, abar),
                         blocks={0: np.array([[s]], dtype=complex)})


def cap_morphism(cd: CategoryData, a) -> MorphismValue:
    abar = cd.ring.dual[a]
    s = np.sqrt(cd.dims.dims[a])
    return MorphismValue(source=(a, abar), target=(),
                         blocks={0: np.array([[s]], dtype=complex)})


def scalar_generator(cd: CategoryData, a, b, c, value) -> MorphismValue:
    """The morphism [a,b] -> [c] with coefficient ``value`` on the channel c."""
    if not cd.ring.N[a, b, c]:
        raise StructuralError(f"({a},{b})->{c} is not an admissible channel")
    return MorphismValue(source=(a, b), target=(c,),
                         blocks={c: np.array([[complex(value)]])})


def path_vector(cd: CategoryData, word, c, path) -> MorphismValue:
    """The isometry [c] -> word picking one orthonormal fusion path."""
    word = tuple(word)
    plist = paths(cd.ring, word).get(c, [])
    if tuple(path) not in plist:
        raise StructuralError(f"{path} is not a path of {word} at channel {c}")
    col = np.zeros((len(plist), 1), dtype=complex)
    col[plist.index(tuple(path)), 0] = 1.0
    return MorphismValue(source=(c,), target=word, blocks={c: col})


def unfold(cd, x, s_word, y):
    """Unitary change of basis between in-context and detached middle bases.

    Returns (in_basis, out_basis, U): in_basis holds the in-context middle
    paths m from x to y through s_word; out_basis holds pairs (e, n) of a
    standalone path n of s_word at total e with N^y_{x,e} = 1; and
    |m> = sum U[(e,n), m] |x (x) (e, n); y>.  Detaching the strands s_2 ..
    s_j one F-move at a time, U[(e,n), m] is the product over k of
    F^{x n_k s_{k+1}}_{m_{k+1}}[m_k, n_{k+1}], on the n with N^{m_k}_{x n_k} = 1
    at every step, and 0 elsewhere.
    """
    ring, s_word = cd.ring, tuple(s_word)
    in_basis = tuple(p[1:] for p in paths(ring, (x,) + s_word).get(y, []))
    entries = {}        # (e, n, column of m) -> U entry
    for col, m in enumerate(in_basis):
        walk = [(s_word[:1], 1.0 + 0.0j)]
        for k in range(1, len(s_word)):
            walk = [(n + (c,), amp * cd.fval(x, n[-1], s_word[k], m[k], m[k - 1], c))
                    for n, amp in walk for c in ring.channels(n[-1], s_word[k])
                    if ring.N[x, c, m[k]]]
        entries.update(((n[-1] if n else 0, n, col), amp) for n, amp in walk)
    out_basis = tuple(sorted({key[:2] for key in entries}))
    row = {ob: i for i, ob in enumerate(out_basis)}
    U = np.zeros((len(out_basis), len(in_basis)), dtype=complex)
    for (e, n, col), amp in entries.items():
        U[row[e, n], col] = amp
    return in_basis, out_basis, U


def _by_middle(ps, p, j):
    """The paths ps, split into p prefix, j middle and suffix channels,
    grouped by (prefix, y, suffix) with y the channel the middle ends on:
    key -> [(middle, position in ps)]."""
    groups = {}
    for i, path in enumerate(ps):
        y = path[p + j - 1] if p + j else 0
        groups.setdefault((path[:p], y, path[p + j:]), []).append((path[p:p + j], i))
    return groups


def insert(cd: CategoryData, prefix, h: MorphismValue, suffix,
           max_word=DEFAULT_MAX_WORD) -> MorphismValue:
    """id_prefix (x) h (x) id_suffix as a MorphismValue."""
    prefix = tuple(prefix)
    suffix = tuple(suffix)
    ring = cd.ring
    src = prefix + h.source + suffix
    tgt = prefix + h.target + suffix
    if max(len(src), len(tgt)) > max_word:
        raise PreconditionError(
            f"word length {max(len(src), len(tgt))} exceeds the cap {max_word}; "
            "pass a larger max_word to override")
    p, j_s, j_t = len(prefix), len(h.source), len(h.target)
    src_by = paths(ring, src)
    tgt_by = paths(ring, tgt)
    h_paths = paths(ring, h.source), paths(ring, h.target)
    middle_cache = {}
    blocks = {}
    for c in set(src_by) | set(tgt_by):
        sps = src_by.get(c, [])
        tps = tgt_by.get(c, [])
        block = np.zeros((len(tps), len(sps)), dtype=complex)
        groups_t = _by_middle(tps, p, j_t)
        for key, src_items in _by_middle(sps, p, j_s).items():
            tgt_items = groups_t.get(key)
            if not tgt_items:
                continue
            pp, y, vp = key
            x = pp[-1] if p else 0
            mkey = (x, y)
            if mkey not in middle_cache:
                middle_cache[mkey] = _middle_matrix(cd, x, h, y, *h_paths)
            in_s, in_t, M = middle_cache[mkey]
            if M.size == 0:
                continue
            col = {m: k for k, m in enumerate(in_s)}
            row = {m: k for k, m in enumerate(in_t)}
            for sm, i_s in src_items:
                for tm, i_t in tgt_items:
                    block[i_t, i_s] = M[row[tm], col[sm]]
        blocks[c] = block
    return MorphismValue(source=src, target=tgt, blocks=blocks)


def _middle_matrix(cd, x, h, y, src_order, tgt_order):
    """Matrix of id_x (x) h between in-context middle bases at (x, y);
    src_order and tgt_order are the paths of h's source and target."""
    in_s, out_s, U_s = unfold(cd, x, h.source, y)
    in_t, out_t, U_t = unfold(cd, x, h.target, y)
    D = np.zeros((len(out_t), len(out_s)), dtype=complex)
    spaths = {}
    for col, (e, sp) in enumerate(out_s):
        spaths.setdefault(e, []).append((sp, col))
    for rowi, (e, tp) in enumerate(out_t):
        if e not in spaths:
            continue
        hb = h.blocks.get(e)
        if hb is None:
            continue
        ti = tgt_order[e].index(tp)
        for sp, col in spaths[e]:
            si = src_order[e].index(sp)
            D[rowi, col] = hb[ti, si]
    M = U_t.conj().T @ D @ U_s
    return in_s, in_t, M


def compose_values(cd, f: MorphismValue, g: MorphismValue) -> MorphismValue:
    """f after g."""
    if f.source != g.target:
        raise TypeError_(f"cannot compose: inner words {f.source} != {g.target}")
    ring = cd.ring
    blocks = {}
    for c in set(f.blocks) | set(g.blocks):
        blocks[c] = f.block(ring, c) @ g.block(ring, c)
    return MorphismValue(source=g.source, target=f.target, blocks=blocks)


def tensor_values(cd, f: MorphismValue, g: MorphismValue,
                  max_word=DEFAULT_MAX_WORD) -> MorphismValue:
    left = insert(cd, (), f, g.source, max_word=max_word)
    right = insert(cd, f.target, g, (), max_word=max_word)
    return compose_values(cd, right, left)


def dagger_value(f: MorphismValue) -> MorphismValue:
    return f.dagger()


def categorical_trace(cd: CategoryData, mv: MorphismValue) -> complex:
    """Spherical trace sum_c d_c tr(block_c); needs source = target."""
    if mv.source != mv.target:
        raise PreconditionError("categorical trace needs an endomorphism")
    total = 0.0 + 0.0j
    for c, m in mv.blocks.items():
        if m.size:
            total += cd.dims.dims[c] * np.trace(m)
    return complex(total)


# ---------------------------------------------------------------------------
# expression language


class ParseError(StructuralError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


class TypeError_(StructuralError):
    """Word mismatch in a diagram expression."""


@dataclass
class DiagramExpr:
    """AST node: kind in {id, braid, ibraid, cup, cap, gen, compose, tensor, dagger}."""

    kind: str
    args: tuple

    def __repr__(self):
        return f"DiagramExpr({self.kind}, {self.args!r})"


_KEYWORDS = {"id", "braid", "ibraid", "cup", "cap"}


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in ".*[](),":
            tokens.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch == "†":  # dagger sign
            tokens.append(("dagger", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalnum() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2], tok[3])
        return tok

    def parse(self):
        expr = self.expr()
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2], tok[3])
        return expr

    def expr(self):
        out = self.term()
        while self.peek()[0] == ".":
            self.next()
            out = DiagramExpr("compose", (out, self.term()))
        return out

    def term(self):
        out = self.factor()
        while self.peek()[0] == "*":
            self.next()
            out = DiagramExpr("tensor", (out, self.factor()))
        return out

    def factor(self):
        out = self.atom()
        while self.peek()[0] == "dagger":
            self.next()
            out = DiagramExpr("dagger", (out,))
        return out

    def labels(self):
        self.expect("[")
        labs = []
        if self.peek()[0] != "]":
            labs.append(self.expect("name")[1])
            while self.peek()[0] == ",":
                self.next()
                labs.append(self.expect("name")[1])
        self.expect("]")
        return tuple(labs)

    def atom(self):
        tok = self.next()
        if tok[0] == "(":
            out = self.expr()
            self.expect(")")
            return out
        if tok[0] != "name":
            raise ParseError(f"expected an atom, found {tok[1]!r}", tok[2], tok[3])
        name = tok[1]
        if name in _KEYWORDS:
            labs = self.labels()
            want = {"id": None, "braid": 2, "ibraid": 2, "cup": 1, "cap": 1}[name]
            if want is not None and len(labs) != want:
                raise ParseError(f"{name} takes {want} label(s)", tok[2], tok[3])
            return DiagramExpr(name, labs)
        return DiagramExpr("gen", (name,))


def parse_diagram(text: str) -> DiagramExpr:
    """Parse the expression language; errors carry line and column."""
    return _Parser(_tokenize(text)).parse()


def _resolve(ring, lab):
    # display names win over numeric indices ("1" is usually the unit's name)
    if lab in ring.labels:
        return ring.labels.index(lab)
    try:
        return ring.label_index(int(lab))
    except (ValueError, StructuralError):
        return ring.label_index(lab)


def typecheck(expr: DiagramExpr, cd: CategoryData, env=None):
    """Infer (source, target) words; raise TypeError_ on mismatches."""
    env = env or {}
    ring = cd.ring

    def go(e):
        if e.kind == "id":
            w = tuple(_resolve(ring, l) for l in e.args)
            return w, w
        if e.kind in ("braid", "ibraid"):
            a, b = (_resolve(ring, l) for l in e.args)
            return ((a, b), (b, a)) if e.kind == "braid" else ((b, a), (a, b))
        if e.kind == "cup":
            a = _resolve(ring, e.args[0])
            return (), (a, ring.dual[a])
        if e.kind == "cap":
            a = _resolve(ring, e.args[0])
            return (a, ring.dual[a]), ()
        if e.kind == "gen":
            name = e.args[0]
            if name not in env:
                raise TypeError_(f"unbound generator {name!r}")
            g = env[name]
            return tuple(g.source), tuple(g.target)
        if e.kind == "dagger":
            s, t = go(e.args[0])
            return t, s
        if e.kind == "tensor":
            s1, t1 = go(e.args[0])
            s2, t2 = go(e.args[1])
            return s1 + s2, t1 + t2
        if e.kind == "compose":
            s1, t1 = go(e.args[0])
            s2, t2 = go(e.args[1])
            if s1 != t2:
                raise TypeError_(
                    f"cannot compose: {e.args[0].kind} expects {s1}, "
                    f"{e.args[1].kind} produces {t2}")
            return s2, t1
        raise StructuralError(f"unknown node kind {e.kind}")

    return go(expr)


def evaluate(expr, cd: CategoryData, env=None,
             max_word=DEFAULT_MAX_WORD) -> MorphismValue:
    """Evaluate a DiagramExpr (or source text) to a MorphismValue."""
    if isinstance(expr, str):
        expr = parse_diagram(expr)
    env = env or {}
    typecheck(expr, cd, env)
    ring = cd.ring

    def capped(mv):
        if max(len(mv.source), len(mv.target)) > max_word:
            raise PreconditionError(
                f"word length {max(len(mv.source), len(mv.target))} exceeds "
                f"the cap {max_word}; pass a larger max_word to override")
        return mv

    def go(e):
        if e.kind == "id":
            return capped(identity_morphism(cd, tuple(_resolve(ring, l) for l in e.args)))
        if e.kind == "braid":
            a, b = (_resolve(ring, l) for l in e.args)
            return braid_morphism(cd, a, b)
        if e.kind == "ibraid":
            a, b = (_resolve(ring, l) for l in e.args)
            return inverse_braid_morphism(cd, a, b)
        if e.kind == "cup":
            return cup_morphism(cd, _resolve(ring, e.args[0]))
        if e.kind == "cap":
            return cap_morphism(cd, _resolve(ring, e.args[0]))
        if e.kind == "gen":
            return capped(env[e.args[0]])
        if e.kind == "dagger":
            return go(e.args[0]).dagger()
        if e.kind == "tensor":
            return tensor_values(cd, go(e.args[0]), go(e.args[1]), max_word=max_word)
        if e.kind == "compose":
            return compose_values(cd, go(e.args[0]), go(e.args[1]))
        raise StructuralError(f"unknown node kind {e.kind}")

    return go(expr)
