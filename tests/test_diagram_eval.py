import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensorcat.diagram_eval import (DiagramExpr, ParseError, TypeError_,
                                    categorical_trace, compose_values,
                                    dagger_value, evaluate,
                                    identity_morphism, parse_diagram,
                                    paths, tensor_values, typecheck)
from tensorcat.braided_analysis import s_matrix
from tensorcat.errors import PreconditionError

from oracles import PHI


# --- parsing ---------------------------------------------------------------

def test_parse_compose_chain():
    ast = parse_diagram("braid[t,t] . braid[t,t]")
    assert ast.kind == "compose"
    assert ast.args[0].kind == "braid" and ast.args[1].kind == "braid"


def test_parse_precedence_tensor_binds_tighter():
    ast = parse_diagram("m . (id[q] * m)")
    assert ast.kind == "compose"
    assert ast.args[1].kind == "tensor"
    assert ast.args[1].args[0].args == ("q",)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_diagram("cup[a")
    assert err.value.col == 6  # after consuming "cup[a" the ']' is missing
    with pytest.raises(ParseError):
        parse_diagram("braid[a,]")


def test_parse_dagger_postfix():
    ast = parse_diagram("cup[t]†")
    assert ast.kind == "dagger"
    assert ast.args[0].kind == "cup"


def _render(ast):
    if ast.kind == "compose":
        return f"({_render(ast.args[0])} . {_render(ast.args[1])})"
    if ast.kind == "tensor":
        return f"({_render(ast.args[0])} * {_render(ast.args[1])})"
    if ast.kind == "dagger":
        return f"({_render(ast.args[0])})†"
    if ast.kind == "gen":
        return ast.args[0]
    return f"{ast.kind}[{','.join(ast.args)}]"


@st.composite
def ast_strategy(draw, depth=0):
    if depth > 3:
        kind = draw(st.sampled_from(["id", "braid", "cup", "gen"]))
    else:
        kind = draw(st.sampled_from(
            ["id", "braid", "ibraid", "cup", "cap", "gen",
             "compose", "tensor", "dagger"]))
    labels = st.sampled_from(["a", "b1", "x_y"])
    if kind == "id":
        return DiagramExpr("id", tuple(draw(st.lists(labels, min_size=0, max_size=3))))
    if kind in ("braid", "ibraid"):
        return DiagramExpr(kind, (draw(labels), draw(labels)))
    if kind in ("cup", "cap"):
        return DiagramExpr(kind, (draw(labels),))
    if kind == "gen":
        return DiagramExpr("gen", (draw(st.sampled_from(["f", "g2", "m_0"])),))
    if kind == "dagger":
        return DiagramExpr("dagger", (draw(ast_strategy(depth=depth + 1)),))
    return DiagramExpr(kind, (draw(ast_strategy(depth=depth + 1)),
                              draw(ast_strategy(depth=depth + 1))))


@given(ast_strategy())
@settings(max_examples=120, deadline=None)
def test_parse_render_round_trip(ast):
    assert parse_diagram(_render(ast)) == ast


# --- typechecking ----------------------------------------------------------

def test_typecheck_braid(ising_cat):
    expr = parse_diagram("braid[s,s]")
    assert typecheck(expr, ising_cat) == ((1, 1), (1, 1))


def test_typecheck_loop(fib):
    expr = parse_diagram("cap[t] . cup[t]")
    assert typecheck(expr, fib) == ((), ())


def test_typecheck_mismatch(fib):
    expr = parse_diagram("id[t] . id[1]")
    with pytest.raises(TypeError_):
        typecheck(expr, fib)


def test_typecheck_unbound_generator(fib):
    with pytest.raises(TypeError_):
        typecheck(parse_diagram("nosuch"), fib)


# --- evaluation ------------------------------------------------------------

def test_loop_value_is_quantum_dimension(cats):
    for name, cd in cats.items():
        for a in range(cd.ring.rank):
            la = cd.ring.labels[a]
            val = categorical_trace(cd, evaluate(f"cap[{la}] . cup[{la}]", cd))
            assert val == pytest.approx(cd.dims.dims[a], abs=1e-9), (name, a)


def test_fibonacci_loop_is_phi(fib):
    assert categorical_trace(cd=fib, mv=evaluate("cap[t] . cup[t]", fib)) == \
        pytest.approx(PHI, abs=1e-9)


def test_inverse_braid_cancels(cats):
    for name, cd in cats.items():
        for a in range(cd.ring.rank):
            for b in range(cd.ring.rank):
                la, lb = cd.ring.labels[a], cd.ring.labels[b]
                v = evaluate(f"ibraid[{la},{lb}] . braid[{la},{lb}]", cd)
                for c, m in v.blocks.items():
                    assert np.allclose(m, np.eye(m.shape[0]), atol=1e-12)


def test_yang_baxter(fib, ising_cat):
    for cd, l in ((fib, "t"), (ising_cat, "s")):
        lhs = evaluate(f"(braid[{l},{l}]*id[{l}]) . (id[{l}]*braid[{l},{l}])"
                       f" . (braid[{l},{l}]*id[{l}])", cd)
        rhs = evaluate(f"(id[{l}]*braid[{l},{l}]) . (braid[{l},{l}]*id[{l}])"
                       f" . (id[{l}]*braid[{l},{l}])", cd)
        for c in set(lhs.blocks) | set(rhs.blocks):
            assert np.allclose(lhs.block(cd.ring, c), rhs.block(cd.ring, c),
                               atol=1e-9)


def test_trace_of_identity_is_product_of_dims(cats):
    for name, cd in cats.items():
        labels = [cd.ring.labels[i % cd.ring.rank] for i in (1, 0, 1)]
        word = ",".join(labels)
        tr = categorical_trace(cd, evaluate(f"id[{word}]", cd))
        want = np.prod([cd.dims.dims[cd.ring.label_index(l)] for l in labels])
        assert tr == pytest.approx(want, abs=1e-9)


def test_trace_on_empty_word(fib):
    assert categorical_trace(fib, evaluate("id[]", fib)) == pytest.approx(1.0)


def test_trace_requires_endomorphism(fib):
    with pytest.raises(PreconditionError):
        categorical_trace(fib, evaluate("cup[t]", fib))


def test_double_braiding_trace_matches_s_matrix(cats):
    for name, cd in cats.items():
        s = s_matrix(cd).s
        for a in range(cd.ring.rank):
            for b in range(cd.ring.rank):
                la, lb = cd.ring.labels[a], cd.ring.labels[b]
                tr = categorical_trace(
                    cd, evaluate(f"braid[{lb},{la}] . braid[{la},{lb}]", cd))
                assert tr == pytest.approx(s[a, b], abs=1e-9), (name, a, b)


def test_compose_is_matrix_product(ising_cat):
    cd = ising_cat
    f = evaluate("braid[s,s] . braid[s,s]", cd)
    g = compose_values(cd, evaluate("braid[s,s]", cd), evaluate("braid[s,s]", cd))
    for c in set(f.blocks) | set(g.blocks):
        assert np.allclose(f.block(cd.ring, c), g.block(cd.ring, c), atol=1e-12)


def test_dagger_is_blockwise_adjoint(ising_cat):
    cd = ising_cat
    f = evaluate("(braid[s,s]*id[p]) . (id[s]*braid[p,s])", cd)
    fd = evaluate("((braid[s,s]*id[p]) . (id[s]*braid[p,s]))†", cd)
    ref = dagger_value(f)
    for c in set(fd.blocks) | set(ref.blocks):
        assert np.allclose(fd.block(cd.ring, c), ref.block(cd.ring, c), atol=1e-12)


def test_evaluation_independent_of_association(fib):
    """Random re-associations of a tensor-compose chain agree blockwise."""
    cd = fib
    rng = np.random.default_rng(11)
    atoms = ["braid[t,t]", "ibraid[t,t]†", "id[t,t]"]
    for _ in range(12):
        picks = [atoms[i] for i in rng.integers(0, len(atoms), size=3)]
        flat = f"({picks[0]} * id[t]) . (id[t] * {picks[1]}) . ({picks[2]} * id[t])"
        ref = evaluate(flat, cd)

        def build(i):
            return evaluate(picks[i], cd)

        left = tensor_values(cd, build(0), identity_morphism(cd, (1,)))
        mid = tensor_values(cd, identity_morphism(cd, (1,)), build(1))
        right = tensor_values(cd, build(2), identity_morphism(cd, (1,)))
        if rng.integers(2):
            other = compose_values(cd, compose_values(cd, left, mid), right)
        else:
            other = compose_values(cd, left, compose_values(cd, mid, right))
        for c in set(ref.blocks) | set(other.blocks):
            assert np.allclose(ref.block(cd.ring, c), other.block(cd.ring, c),
                               atol=1e-9)


def test_tensor_association_of_three(fib):
    cd = fib
    f = evaluate("braid[t,t]", cd)
    g = evaluate("cup[t]", cd)
    h = evaluate("id[t]", cd)
    one = tensor_values(cd, tensor_values(cd, f, g), h)
    two = tensor_values(cd, f, tensor_values(cd, g, h))
    for c in set(one.blocks) | set(two.blocks):
        assert np.allclose(one.block(cd.ring, c), two.block(cd.ring, c), atol=1e-9)


def test_word_length_cap(fib):
    with pytest.raises(PreconditionError):
        evaluate("id[t,t,t,t,t,t,t,t,t]", fib)
    long_word = identity_morphism(fib, (1,) * 9)  # direct path is allowed...
    mv = evaluate("id[t,t,t,t,t,t,t,t,t]", fib, max_word=12)
    assert mv.source == (1,) * 9


def test_paths_counting(fib):
    by_channel = paths(fib.ring, (1, 1, 1))
    assert len(by_channel[1]) == 2  # (t,1,t) and (t,t,t)
    assert len(by_channel[0]) == 1  # (t,t,1)


@st.composite
def word_expr(draw, labels=("1", "s", "p")):
    """Random well-typed Ising expressions on words of bounded length."""
    n = draw(st.integers(min_value=1, max_value=3))
    word = [draw(st.sampled_from(labels)) for _ in range(n)]
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(["braid", "ibraid", "id"]))
        if n >= 2 and kind in ("braid", "ibraid"):
            pos = draw(st.integers(min_value=0, max_value=n - 2))
            ops.append((kind, pos))
        else:
            ops.append(("id", 0))
    return word, ops


@given(word_expr())
@settings(max_examples=40, deadline=None)
def test_random_words_compose_functorially(word_ops):
    """Evaluating a chain at once equals composing stepwise evaluations."""
    from tensorcat.catalog import ising
    cd = ising()
    word, ops = word_ops
    cur = list(word)
    pieces = []
    for kind, pos in ops:
        if kind == "id":
            pieces.append(f"id[{','.join(cur)}]")
        else:
            a, b = cur[pos], cur[pos + 1]
            atom = f"braid[{a},{b}]" if kind == "braid" else f"ibraid[{b},{a}]"
            pre = "".join(f"id[{l}]*" for l in cur[:pos])
            post = "".join(f"*id[{l}]" for l in cur[pos + 2:])
            pieces.append(f"({pre}{atom}{post})")
            cur[pos], cur[pos + 1] = b, a
    chain = " . ".join(reversed(pieces))
    whole = evaluate(chain, cd)
    stepwise = None
    for piece in pieces:
        mv = evaluate(piece, cd)
        stepwise = mv if stepwise is None else compose_values(cd, mv, stepwise)
    for c in set(whole.blocks) | set(stepwise.blocks):
        assert np.allclose(whole.block(cd.ring, c), stepwise.block(cd.ring, c),
                           atol=1e-10)


def test_unfold_matrices_are_unitary(cats):
    """The F-move change of basis between in-context and detached middle
    bases must be unitary for every context."""
    from tensorcat.diagram_eval import unfold
    from oracles import psu2_category
    for cd in (cats["ising"], cats["fibonacci"], psu2_category(6)):
        r = cd.ring.rank
        rng = np.random.default_rng(4)
        for _ in range(30):
            x, y = rng.integers(0, r, size=2)
            word = tuple(rng.integers(0, r, size=rng.integers(0, 4)))
            in_b, out_b, U = unfold(cd, int(x), word, int(y))
            assert len(in_b) == len(out_b)
            if len(in_b):
                assert np.allclose(U.conj().T @ U, np.eye(len(in_b)), atol=1e-12)


@pytest.mark.parametrize("name", ["fibonacci", "ising", "PSU(2)_6", "fib*ising",
                                  "ising in a gauge", "vec_zn(3,2)"])
def test_unfold_matches_the_amplitude_walk(cats, name):
    """unfold's per-path F-move products are the amplitude walk's U, bit for
    bit, with the same bases, on every word of length 0 to 3 and every
    context (x, y)."""
    import itertools
    from tensorcat.catalog import vec_zn
    from tensorcat.category_data import deligne_product_data
    from tensorcat.diagram_eval import unfold
    from oracles import psu2_category, unfold_by_walk, vertex_gauge
    cd = {"PSU(2)_6": lambda: psu2_category(6),
          "fib*ising": lambda: deligne_product_data(cats["fibonacci"], cats["ising"]),
          "ising in a gauge": lambda: vertex_gauge(cats["ising"], 3),
          "vec_zn(3,2)": lambda: vec_zn(3, 2)}.get(name, lambda: cats[name])()
    r = cd.ring.rank
    for j in range(4):
        for word in itertools.product(range(r), repeat=j):
            for x, y in itertools.product(range(r), repeat=2):
                in_b, out_b, U = unfold(cd, x, word, y)
                in_w, out_w, U_w = unfold_by_walk(cd, x, word, y)
                assert (in_b, out_b) == (in_w, out_w), (x, word, y)
                assert np.array_equal(U, U_w), (x, word, y)


def test_missing_r_reported(toric):
    import dataclasses
    cd = dataclasses.replace(toric, R=None)
    with pytest.raises(PreconditionError):
        evaluate("braid[e,m]", cd)


def _braid_in_context(cd):
    from tensorcat.diagram_eval import braid_morphism, insert
    return insert(cd, (1,), braid_morphism(cd, 1, 2), (1,))


def test_evaluator_caches_die_with_their_category():
    import gc
    import weakref
    from tensorcat.catalog import ising
    cd = ising()
    _braid_in_context(cd)
    paths(cd.ring, (1, 1, 1, 2))
    refs = weakref.ref(cd), weakref.ref(cd.ring)
    del cd
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_equal_distinct_categories_evaluate_identically(monkeypatch):
    import tensorcat.diagram_eval as de
    from tensorcat.catalog import ising
    cd1, cd2 = ising(), ising()
    assert cd1.ring == cd2.ring and cd1.ring is not cd2.ring
    seen = []
    real = de.unfold
    monkeypatch.setattr(de, "unfold", lambda cd, *args: seen.append(cd) or real(cd, *args))
    v1 = _braid_in_context(cd1)
    calls = len(seen)
    v2 = _braid_in_context(cd2)
    # nothing is reused through equality: the second category unfolds as the first
    assert calls and seen == [cd1] * calls + [cd2] * calls
    assert v1.blocks.keys() == v2.blocks.keys()
    for c in v1.blocks:
        assert np.array_equal(v1.blocks[c], v2.blocks[c])
