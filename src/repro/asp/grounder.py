"""Bottom-up grounder over interned symbols with indexed, planned joins.

The grounder instantiates safe rules by joining positive body literals against
the database of *possible* atoms (an over-approximation of everything that can
become true), processing predicates in dependency (SCC) order and iterating
each component to a fixpoint.  Conditional literals and choice-element
conditions are expanded over *certain* atoms (facts and atoms derived purely
from facts), which is exactly how the paper's generalized condition handling
(``condition_requirement`` / ``imposed_constraint``) uses them.

This is the **fast** implementation of that contract (the reference
tuple-at-a-time implementation is the test oracle
``tests/asp/naive_grounder.py``, and tests assert both derive the same
programs).  Three ideas make it fast:

* **interned symbols** — every ground value is interned once into a
  per-lineage :class:`~repro.asp.symbols.SymbolTable`, so relations, join
  keys, and dedup keys are flat ``tuple[int, ...]`` and the inner loops hash
  and compare small ints instead of strings; strings are materialized only
  when an atom first enters the :class:`~repro.asp.ground.AtomTable`;
* **indexed joins** — relations keep lazily built, incrementally maintained
  hash indexes on argument positions; a per-rule join planner orders positive
  literals by bound-argument selectivity and compiles each rule into a plan
  of index scans / membership probes executed over a flat variable-slot
  environment (no dict substitutions, no per-tuple unification calls);
* **copy-on-write clones** — :meth:`Grounder.clone` shares relation storage
  and indexes with the base until either side writes, so per-spec delta
  layers fork in microseconds and the base's indexes are reused read-only.

Compiled plans are process-local (dropped on pickling, rebuilt lazily), so a
fully grounded ``Grounder`` remains picklable for the on-disk ground cache.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.asp.errors import GroundingError
from repro.asp.ground import (
    GroundChoice,
    GroundConstraint,
    GroundMinimizeLiteral,
    GroundProgram,
    GroundRule,
)
from repro.asp.symbols import SymbolTable
from repro.asp.syntax import (
    Atom,
    Choice,
    Comparison,
    ConditionalLiteral,
    Constant,
    Literal,
    Minimize,
    Number,
    Program,
    Rule,
    String,
    Variable,
    compare_ground_values,
    evaluate_term,
    ground_atom,
    term_is_ground,
    term_variables,
)

Substitution = Dict[str, object]

#: relation key: (predicate name, arity)
RelKey = Tuple[str, int]


class _Relation:
    """Argument id-tuples for one (predicate, arity), with hash indexes.

    Indexes are keyed by the tuple of argument positions they cover and are
    built lazily the first time a join plan needs them; :meth:`add` maintains
    every existing index incrementally, which is what keeps ``ground_delta``
    cheap.  :meth:`fork` shares all storage copy-on-write: both sides are
    marked shared and the first writer takes a private copy (dropping its
    indexes, which rebuild lazily), so read-mostly clones cost O(1).
    """

    __slots__ = ("tuples", "_seen", "_indexes", "_shared")

    def __init__(self):
        self.tuples: List[tuple] = []
        self._seen: Set[tuple] = set()
        self._indexes: Dict[Tuple[int, ...], Dict] = {}
        self._shared = False

    def add(self, args: tuple) -> bool:
        if args in self._seen:
            return False
        if self._shared:
            self._unshare()
        self._seen.add(args)
        self.tuples.append(args)
        for positions, index in self._indexes.items():
            if len(positions) == 1:
                key = args[positions[0]]
            else:
                key = tuple(args[p] for p in positions)
            bucket = index.get(key)
            if bucket is None:
                index[key] = [args]
            else:
                bucket.append(args)
        return True

    def __contains__(self, args: tuple) -> bool:
        return args in self._seen

    def __len__(self) -> int:
        return len(self.tuples)

    def lookup(self, positions: Tuple[int, ...], key) -> Optional[list]:
        """Tuples whose ``positions`` project onto ``key`` (scalar when a
        single position is covered), or None when the bucket is empty."""
        index = self._indexes.get(positions)
        if index is None:
            index = self._build_index(positions)
        return index.get(key)

    def _build_index(self, positions: Tuple[int, ...]) -> Dict:
        index: Dict = {}
        if len(positions) == 1:
            position = positions[0]
            for args in self.tuples:
                key = args[position]
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [args]
                else:
                    bucket.append(args)
        else:
            for args in self.tuples:
                key = tuple(args[p] for p in positions)
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [args]
                else:
                    bucket.append(args)
        # publish fully built, then assign: a concurrent reader (thread
        # backend sharing a warm base) sees either no index or a complete one
        self._indexes[positions] = index
        return index

    def _unshare(self):
        self.tuples = list(self.tuples)
        self._seen = set(self._seen)
        self._indexes = {}
        self._shared = False

    def fork(self) -> "_Relation":
        other = _Relation.__new__(_Relation)
        other.tuples = self.tuples
        other._seen = self._seen
        other._indexes = self._indexes
        other._shared = True
        self._shared = True
        return other

    # indexes are derived data and the shared flag is process-local state
    def __getstate__(self):
        return {"tuples": list(self.tuples)}

    def __setstate__(self, state):
        self.tuples = state["tuples"]
        self._seen = set(self.tuples)
        self._indexes = {}
        self._shared = False


class _AtomDatabase:
    """Possible/certain atom storage keyed by (predicate name, arity)."""

    __slots__ = ("relations",)

    def __init__(self):
        self.relations: Dict[RelKey, _Relation] = {}

    def relation(self, key: RelKey) -> _Relation:
        relation = self.relations.get(key)
        if relation is None:
            relation = _Relation()
            self.relations[key] = relation
        return relation

    def add(self, key: RelKey, args: tuple) -> bool:
        return self.relation(key).add(args)

    def contains(self, key: RelKey, args: tuple) -> bool:
        relation = self.relations.get(key)
        return relation is not None and args in relation._seen

    def count_name(self, name: str) -> int:
        """Total tuples across every arity of ``name`` (choice re-expansion
        triggers match the naive grounder's by-name delta check)."""
        total = 0
        for (rel_name, _arity), relation in self.relations.items():
            if rel_name == name:
                total += len(relation.tuples)
        return total

    def fork(self) -> "_AtomDatabase":
        other = _AtomDatabase()
        other.relations = {
            key: relation.fork() for key, relation in self.relations.items()
        }
        return other

    def __getstate__(self):
        return {"relations": self.relations}

    def __setstate__(self, state):
        self.relations = state["relations"]


# ---------------------------------------------------------------------------
# compilation: terms -> value evaluators, atoms -> id-tuple builders
# ---------------------------------------------------------------------------


def _compile_value_fn(term, var_index, symbols):
    """Compile ``term`` into ``fn(env) -> ground value`` (value space).

    Mirrors :func:`repro.asp.syntax.evaluate_term` semantics: KeyError for
    unbound variables, TypeError for arithmetic over non-integers.
    """
    if isinstance(term, Number):
        value = term.value
        return lambda env: value
    if isinstance(term, String):
        value = term.value
        return lambda env: value
    if isinstance(term, Constant):
        value = term.name
        return lambda env: value
    if isinstance(term, Variable):
        if term.name == "_":
            def unbound(env, _name=term.name):
                raise KeyError(_name)
            return unbound
        slot = var_index[term.name]
        values = symbols.values

        def variable(env, _slot=slot, _values=values, _name=term.name):
            symbol = env[_slot]
            if symbol is None:
                raise KeyError(_name)
            return _values[symbol]

        return variable
    # BinaryOp (or anything exotic): rebuild a minimal substitution and defer
    # to evaluate_term so arithmetic/error semantics match the reference
    # grounder exactly.  Complex terms are rare; this path is not hot.
    names = sorted({v.name for v in term_variables(term)})
    slots = [var_index[name] for name in names]
    values = symbols.values

    def compound(env, _names=names, _slots=slots, _values=values, _term=term):
        substitution = {}
        for name, slot in zip(_names, _slots):
            symbol = env[slot]
            if symbol is None:
                raise KeyError(name)
            substitution[name] = _values[symbol]
        return evaluate_term(_term, substitution)

    return compound


def _compile_comparison_fn(comparison, var_index, symbols):
    """Compile a comparison into ``fn(env) -> bool``.

    Equality and inequality between interned symbols compare ids directly
    (the symbol table is a bijection); ordered operators materialize values
    because the order is defined over values, not ids.
    """
    left, right, op = comparison.left, comparison.right, comparison.op
    if op in ("=", "!="):
        left_id = _id_operand(left, var_index, symbols)
        right_id = _id_operand(right, var_index, symbols)
        if left_id is not None and right_id is not None:
            left_kind, left_payload = left_id
            right_kind, right_payload = right_id
            if op == "=":
                if left_kind == "const" and right_kind == "const":
                    result = left_payload == right_payload
                    return lambda env: result
                if left_kind == "const":
                    return lambda env: env[right_payload] == left_payload
                if right_kind == "const":
                    return lambda env: env[left_payload] == right_payload
                return lambda env: env[left_payload] == env[right_payload]
            if left_kind == "const" and right_kind == "const":
                result = left_payload != right_payload
                return lambda env: result
            if left_kind == "const":
                return lambda env: env[right_payload] != left_payload
            if right_kind == "const":
                return lambda env: env[left_payload] != right_payload
            return lambda env: env[left_payload] != env[right_payload]
    left_fn = _compile_value_fn(left, var_index, symbols)
    right_fn = _compile_value_fn(right, var_index, symbols)
    return lambda env: compare_ground_values(op, left_fn(env), right_fn(env))


def _id_operand(term, var_index, symbols):
    """('const', sid) / ('var', slot) for terms comparable in id space."""
    if isinstance(term, Variable) and term.name != "_":
        return ("var", var_index[term.name])
    if isinstance(term, (Number, String, Constant)) or (
        not isinstance(term, Variable) and term_is_ground(term)
    ):
        return ("const", symbols.intern(evaluate_term(term, {})))
    return None


def _codegen(parts: Sequence[str], namespace: Dict, scalar: bool = False):
    """Compile ``parts`` (env-indexing expressions) into a tuple builder.

    With ``scalar=True`` and a single part, the builder returns the bare
    value — single-position index keys avoid the tuple allocation.
    """
    if not parts:
        return lambda env: ()
    if scalar and len(parts) == 1:
        source = f"lambda env: {parts[0]}"
    else:
        source = "lambda env: (" + ",".join(parts) + ",)"
    return eval(source, namespace)  # noqa: S307 - generated from ints/slots only


class _AtomTemplate:
    """Compiled ground-atom builder: ``build(env) -> args id tuple``."""

    __slots__ = ("name", "arity", "rel_key", "pred_sid", "build")

    def __init__(self, atom: Atom, var_index, symbols):
        self.name = atom.name
        self.arity = len(atom.arguments)
        self.rel_key = (atom.name, self.arity)
        self.pred_sid = symbols.intern(atom.name)
        namespace: Dict = {"I": symbols.intern}
        parts: List[str] = []
        for argument in atom.arguments:
            if isinstance(argument, Variable) and argument.name != "_":
                parts.append(f"env[{var_index[argument.name]}]")
            elif term_is_ground(argument):
                parts.append(repr(symbols.intern(evaluate_term(argument, {}))))
            else:
                # complex or "_" term: evaluate in value space, re-intern
                index = len(namespace)
                fn = _compile_value_fn(argument, var_index, symbols)
                namespace[f"T{index}"] = fn
                parts.append(f"I(T{index}(env))")
        self.build = _codegen(parts, namespace)


class _PosLiteral:
    """A positive body literal: planning spec + materialization template."""

    __slots__ = ("atom", "template", "spec", "var_slots")

    def __init__(self, literal: Literal, var_index, symbols):
        atom = literal.atom
        self.atom = atom
        self.template = _AtomTemplate(atom, var_index, symbols)
        self.var_slots = frozenset(
            var_index[v.name] for v in atom.variables()
        )
        spec = []
        for argument in atom.arguments:
            if isinstance(argument, Variable):
                if argument.name == "_":
                    spec.append(("any",))
                else:
                    spec.append(("var", var_index[argument.name]))
            elif term_is_ground(argument):
                spec.append(
                    ("const", symbols.intern(evaluate_term(argument, {})))
                )
            else:
                fn = _compile_value_fn(argument, var_index, symbols)
                slots = frozenset(
                    var_index[v.name] for v in term_variables(argument)
                )
                message = (
                    f"argument {argument} of {atom} contains unbound variables"
                )
                spec.append(("term", fn, slots, message))
        self.spec = spec


class _Step:
    """One compiled join step (an index scan or a membership probe)."""

    __slots__ = (
        "rel_key",
        "positions",
        "key_fn",
        "binds",
        "checks",
        "comps",
        "ordered_ops",
        "member_fn",
        "use_delta",
    )

    def __init__(self):
        self.rel_key = None
        self.positions: Tuple[int, ...] = ()
        self.key_fn = None
        self.binds: Tuple[Tuple[int, int], ...] = ()
        self.checks: Tuple[Tuple[int, int], ...] = ()
        self.comps: Tuple = ()
        self.ordered_ops = None
        self.member_fn = None
        self.use_delta = False


class _Plan:
    """A compiled join: ordered steps plus comparison placement."""

    __slots__ = ("steps", "pre_comps", "unsafe_comparisons")

    def __init__(self, steps, pre_comps, unsafe_comparisons):
        self.steps = tuple(steps)
        self.pre_comps = tuple(pre_comps)
        self.unsafe_comparisons = tuple(unsafe_comparisons)


def _make_step(literal: _PosLiteral, bound: Set[int], symbols, use_delta=False):
    """Compile one scan/membership step for ``literal`` given ``bound`` slots.

    Returns ``(step, newly_bound_slots)``.  Every const/bound argument goes
    into the index key; first occurrences of free variables become binds and
    repeats become checks.  Literals containing terms over unbound variables
    fall back to an ordered per-candidate matcher that replicates the naive
    grounder's argument-order semantics (including its unbound-term error).
    """
    step = _Step()
    step.rel_key = literal.template.rel_key
    step.use_delta = use_delta
    namespace: Dict = {"I": symbols.intern}
    key_positions: List[int] = []
    key_parts: List[str] = []
    binds: List[Tuple[int, int]] = []
    checks: List[Tuple[int, int]] = []
    newly_bound: Set[int] = set()
    unsafe_term = False
    spec = literal.spec
    for position, entry in enumerate(spec):
        kind = entry[0]
        if kind == "any":
            continue
        if kind == "const":
            key_positions.append(position)
            key_parts.append(repr(entry[1]))
        elif kind == "var":
            slot = entry[1]
            if slot in bound:
                key_positions.append(position)
                key_parts.append(f"env[{slot}]")
            elif slot in newly_bound:
                checks.append((position, slot))
            else:
                newly_bound.add(slot)
                binds.append((position, slot))
        else:  # term
            _tag, fn, slots, _message = entry
            if slots <= bound:
                index = len(namespace)
                namespace[f"T{index}"] = fn
                key_positions.append(position)
                key_parts.append(f"I(T{index}(env))")
            else:
                unsafe_term = True

    if unsafe_term:
        # ordered fallback: evaluate argument patterns left to right exactly
        # like naive _match_atom, raising on the unbound term when reached
        ops: List[tuple] = []
        local_bound: Set[int] = set()
        for position, entry in enumerate(spec):
            kind = entry[0]
            if kind == "any":
                continue
            if kind == "const":
                ops.append((2, position, entry[1]))
            elif kind == "var":
                slot = entry[1]
                if slot in bound or slot in local_bound:
                    ops.append((1, position, slot))
                else:
                    local_bound.add(slot)
                    ops.append((0, position, slot))
            else:
                _tag, fn, slots, message = entry
                if slots <= (bound | local_bound):
                    intern = symbols.intern

                    def id_fn(env, _fn=fn, _intern=intern):
                        return _intern(_fn(env))

                    ops.append((3, position, (id_fn, message)))
                else:
                    ops.append((4, position, message))
        step.ordered_ops = tuple(ops)
        return step, newly_bound

    if not binds and not checks and len(key_positions) == len(spec):
        # fully bound: a membership probe, no index needed
        step.member_fn = _codegen(key_parts, namespace)
        return step, newly_bound

    if key_positions:
        step.positions = tuple(key_positions)
        step.key_fn = _codegen(key_parts, namespace, scalar=True)
    step.binds = tuple(binds)
    step.checks = tuple(checks)
    return step, newly_bound


def _build_plan(
    positives: Sequence[_PosLiteral],
    comparisons: Sequence[tuple],
    prebound: Iterable[int],
    symbols,
    seed: Optional[int] = None,
):
    """Order literals greedily by bound-argument selectivity and compile.

    ``comparisons`` is a sequence of ``(fn, slots, comparison)``; each lands
    on the earliest step after which all its variables are bound (pre-step
    for those bound up front).  ``seed`` marks the literal scanned against
    the delta database (semi-naive seeding); the remaining literals join
    against the full database.
    """
    bound: Set[int] = set(prebound)
    pre_comps: List = []
    remaining: List[tuple] = []
    for fn, slots, comparison in comparisons:
        if slots <= bound:
            pre_comps.append(fn)
        else:
            remaining.append((fn, slots, comparison))

    steps: List[_Step] = []
    available = list(range(len(positives)))

    def attach_comps(step: _Step):
        attached: List = []
        still: List[tuple] = []
        for fn, slots, comparison in remaining:
            if slots <= bound:
                attached.append(fn)
            else:
                still.append((fn, slots, comparison))
        step.comps = tuple(attached)
        remaining[:] = still

    if seed is not None:
        step, newly = _make_step(positives[seed], bound, symbols, use_delta=True)
        bound |= newly
        attach_comps(step)
        steps.append(step)
        available.remove(seed)

    def selectivity(index: int) -> int:
        score = 0
        for entry in positives[index].spec:
            kind = entry[0]
            if kind == "const":
                score += 1
            elif kind == "var":
                if entry[1] in bound:
                    score += 1
            elif kind == "term" and entry[2] <= bound:
                score += 1
        return score

    while available:
        best = max(available, key=lambda i: (selectivity(i), -i))
        available.remove(best)
        step, newly = _make_step(positives[best], bound, symbols)
        bound |= newly
        attach_comps(step)
        steps.append(step)

    unsafe = [comparison for _fn, _slots, comparison in remaining]
    return _Plan(steps, pre_comps, unsafe)


# ---------------------------------------------------------------------------
# plan execution
# ---------------------------------------------------------------------------


def _execute(plan: _Plan, env: list, db: _AtomDatabase, delta) -> Iterator[list]:
    """Enumerate bindings (the shared ``env`` list) satisfying ``plan``."""
    for fn in plan.pre_comps:
        if not fn(env):
            return
    yield from _descend(plan.steps, plan.unsafe_comparisons, 0, env, db, delta)


def _descend(steps, unsafe, depth, env, db, delta) -> Iterator[list]:
    if depth == len(steps):
        if unsafe:
            unresolved = ", ".join(str(c) for c in unsafe)
            raise GroundingError(f"unsafe comparison(s): {unresolved}")
        yield env
        return
    step = steps[depth]
    source = delta if step.use_delta else db
    relation = source.relations.get(step.rel_key)
    if relation is None:
        return
    member_fn = step.member_fn
    if member_fn is not None:
        if member_fn(env) in relation._seen:
            for fn in step.comps:
                if not fn(env):
                    return
            yield from _descend(steps, unsafe, depth + 1, env, db, delta)
        return
    key_fn = step.key_fn
    if key_fn is None:
        candidates = relation.tuples
    else:
        candidates = relation.lookup(step.positions, key_fn(env))
        if candidates is None:
            return
    ordered_ops = step.ordered_ops
    if ordered_ops is not None:
        next_depth = depth + 1
        for args in candidates:
            ok = True
            for kind, position, payload in ordered_ops:
                if kind == 0:
                    env[payload] = args[position]
                elif kind == 1:
                    if env[payload] != args[position]:
                        ok = False
                        break
                elif kind == 2:
                    if payload != args[position]:
                        ok = False
                        break
                elif kind == 3:
                    fn, message = payload
                    try:
                        expected = fn(env)
                    except KeyError:
                        raise GroundingError(message)
                    if expected != args[position]:
                        ok = False
                        break
                else:
                    raise GroundingError(payload)
            if ok:
                for fn in step.comps:
                    if not fn(env):
                        ok = False
                        break
                if ok:
                    yield from _descend(steps, unsafe, next_depth, env, db, delta)
        return
    binds = step.binds
    checks = step.checks
    comps = step.comps
    next_depth = depth + 1
    for args in candidates:
        for position, slot in binds:
            env[slot] = args[position]
        ok = True
        for position, slot in checks:
            if env[slot] != args[position]:
                ok = False
                break
        if ok:
            for fn in comps:
                if not fn(env):
                    ok = False
                    break
            if ok:
                yield from _descend(steps, unsafe, next_depth, env, db, delta)


# ---------------------------------------------------------------------------
# per-statement compilation
# ---------------------------------------------------------------------------


def _collect_variables(items: Iterable) -> Set[str]:
    names: Set[str] = set()
    for item in items:
        for variable in item.variables():
            names.add(variable.name)
    return names


class _CompiledConditional:
    """A conditional literal: local sub-join over *certain* + a template."""

    __slots__ = ("template", "negated", "plan", "negated_condition_msg")

    def __init__(self, conditional, var_index, symbols, body_slots):
        self.template = _AtomTemplate(conditional.literal.atom, var_index, symbols)
        self.negated = conditional.literal.negated
        self.negated_condition_msg = None
        positives: List[_PosLiteral] = []
        comparisons: List[tuple] = []
        for item in conditional.condition:
            if isinstance(item, Literal):
                if item.negated:
                    self.negated_condition_msg = (
                        "negated literals are not supported in conditions: "
                        f"{conditional}"
                    )
                    continue
                positives.append(_PosLiteral(item, var_index, symbols))
            elif isinstance(item, Comparison):
                fn = _compile_comparison_fn(item, var_index, symbols)
                slots = frozenset(var_index[v.name] for v in item.variables())
                comparisons.append((fn, slots, item))
        self.plan = _build_plan(positives, comparisons, body_slots, symbols)


class _CompiledElement:
    """A choice element: candidate sub-join over *certain* + a template."""

    __slots__ = ("template", "plan", "negated_condition_msg", "element")

    def __init__(self, element, var_index, symbols, body_slots):
        self.element = element
        self.template = _AtomTemplate(element.atom, var_index, symbols)
        self.negated_condition_msg = None
        positives: List[_PosLiteral] = []
        comparisons: List[tuple] = []
        for item in element.condition:
            if isinstance(item, Literal):
                if item.negated:
                    self.negated_condition_msg = (
                        f"negated condition in choice element is unsupported: {element}"
                    )
                    continue
                positives.append(_PosLiteral(item, var_index, symbols))
            elif isinstance(item, Comparison):
                fn = _compile_comparison_fn(item, var_index, symbols)
                slots = frozenset(var_index[v.name] for v in item.variables())
                comparisons.append((fn, slots, item))
        self.plan = _build_plan(positives, comparisons, body_slots, symbols)


class _CompiledStatement:
    """Everything the executor needs for one rule / constraint / element.

    Compiled once per grounder *lineage* (shared by clones, dropped on
    pickling) against the lineage's symbol table, so all embedded constant
    ids agree with the runtime databases.
    """

    def __init__(self, statement, kind: str, symbols: SymbolTable):
        self.statement = statement
        self.kind = kind
        if kind == "minimize_element":
            body = statement.condition
        else:
            body = statement.body

        positives_raw: List[Literal] = []
        negatives_raw: List[Literal] = []
        comparisons_raw: List[Comparison] = []
        conditionals_raw: List[ConditionalLiteral] = []
        for element in body:
            if isinstance(element, Literal):
                (negatives_raw if element.negated else positives_raw).append(element)
            elif isinstance(element, Comparison):
                comparisons_raw.append(element)
            elif isinstance(element, ConditionalLiteral):
                conditionals_raw.append(element)
            else:
                raise GroundingError(f"unsupported body element: {element!r}")

        # variable slot assignment, first occurrence order across the whole
        # statement (body, then head/elements/objective terms)
        var_index: Dict[str, int] = {}

        def slot_of(name: str) -> int:
            slot = var_index.get(name)
            if slot is None:
                slot = len(var_index)
                var_index[name] = slot
            return slot

        def collect(term):
            for variable in term_variables(term):
                slot_of(variable.name)

        for literal in positives_raw:
            for argument in literal.atom.arguments:
                collect(argument)
        for comparison in comparisons_raw:
            collect(comparison.left)
            collect(comparison.right)
        for literal in negatives_raw:
            for argument in literal.atom.arguments:
                collect(argument)
        for conditional in conditionals_raw:
            for item in conditional.condition:
                if isinstance(item, Literal):
                    for argument in item.atom.arguments:
                        collect(argument)
                elif isinstance(item, Comparison):
                    collect(item.left)
                    collect(item.right)
            for argument in conditional.literal.atom.arguments:
                collect(argument)
        head = getattr(statement, "head", None) if kind in ("rule", "choice") else None
        if kind == "rule" and isinstance(head, Atom):
            for argument in head.arguments:
                collect(argument)
        elif kind == "choice":
            for element in head.elements:
                for item in element.condition:
                    if isinstance(item, Literal):
                        for argument in item.atom.arguments:
                            collect(argument)
                    elif isinstance(item, Comparison):
                        collect(item.left)
                        collect(item.right)
                for argument in element.atom.arguments:
                    collect(argument)
            for bound_term in (head.lower, head.upper):
                if bound_term is not None:
                    collect(bound_term)
        elif kind == "minimize_element":
            for term in (statement.weight, statement.priority) + statement.terms:
                collect(term)

        self.var_index = var_index
        self.positives = [
            _PosLiteral(literal, var_index, symbols) for literal in positives_raw
        ]
        self.comparisons = []
        for comparison in comparisons_raw:
            fn = _compile_comparison_fn(comparison, var_index, symbols)
            slots = frozenset(var_index[v.name] for v in comparison.variables())
            self.comparisons.append((fn, slots, comparison))
        self.negatives = [
            _AtomTemplate(literal.atom, var_index, symbols)
            for literal in negatives_raw
        ]

        body_slots = frozenset(
            slot for literal in self.positives for slot in literal.var_slots
        )
        self.body_slots = body_slots

        # runtime-checked unsafety, mirroring the reference grounder's
        # per-call messages (static _check_safety normally fires first)
        bound_names = _collect_variables(positives_raw)
        self.neg_unsafe_msg = None
        for literal in negatives_raw:
            unbound = {v.name for v in literal.variables()} - bound_names
            if unbound:
                self.neg_unsafe_msg = (
                    f"unsafe variables {sorted(unbound)} in negative literal {literal}"
                )
                break

        self.conditionals = [
            _CompiledConditional(conditional, var_index, symbols, body_slots)
            for conditional in conditionals_raw
        ]

        self.head_template = None
        self.head_unsafe_msg = None
        self.elements = []
        self.lower_fn = None
        self.upper_fn = None
        self.key_slots: Tuple[int, ...] = ()
        self.weight_fn = None
        self.priority_fn = None
        self.term_fns: Tuple = ()

        if kind == "rule":
            self.head_template = _AtomTemplate(head, var_index, symbols)
            unbound = {v.name for v in head.variables()} - bound_names
            if unbound:
                self.head_unsafe_msg = (
                    f"unsafe variables {sorted(unbound)} in head of rule: {statement}"
                )
        elif kind == "choice":
            self.elements = [
                _CompiledElement(element, var_index, symbols, body_slots)
                for element in head.elements
            ]
            if head.lower is not None:
                self.lower_fn = _compile_value_fn(head.lower, var_index, symbols)
            if head.upper is not None:
                self.upper_fn = _compile_value_fn(head.upper, var_index, symbols)
            # choice instance identity: body bindings ordered by variable
            # name, matching the reference grounder's substitution keys
            self.key_slots = tuple(
                var_index[name]
                for name in sorted(
                    name for name, slot in var_index.items() if slot in body_slots
                )
            )
        elif kind == "minimize_element":
            self.weight_fn = _compile_value_fn(statement.weight, var_index, symbols)
            self.priority_fn = _compile_value_fn(
                statement.priority, var_index, symbols
            )
            self.term_fns = tuple(
                _compile_value_fn(term, var_index, symbols)
                for term in statement.terms
            )

        self.n_vars = len(var_index)
        self._symbols = symbols
        self._plans: Dict[Optional[int], _Plan] = {}

    def plan(self, seed: Optional[int]) -> _Plan:
        plan = self._plans.get(seed)
        if plan is None:
            plan = _build_plan(
                self.positives, self.comparisons, (), self._symbols, seed=seed
            )
            self._plans[seed] = plan
        return plan


class Grounder:
    """Grounds a :class:`Program` (plus programmatic facts) bottom-up.

    Besides the one-shot :meth:`ground`, a grounder supports *incremental
    extra-facts layering*: after a base grounding, :meth:`clone` forks the
    whole grounding state cheaply (copy-on-write relation forks, no joins)
    and :meth:`ground_delta` grounds additional facts semi-naively — only
    rule instances touching at least one new atom are enumerated, so the
    shared base program is grounded exactly once however many layers are
    forked on top of it.  This is what makes batch concretization sessions
    fast.

    Contract for delta facts: they may introduce new atoms freely, but they
    must not extend relations that appear in conditional-literal *conditions*
    of rule bodies for bindings that were already instantiated during the
    base grounding (e.g. adding ``condition_requirement`` rows for a
    pre-existing condition id would leave stale, weaker rule instances in the
    ground program).  Fresh ids/keys are always safe — which is exactly how
    the concretizer's spec-dependent fact layer is constructed.

    Choice *elements* are exempt from that contract: choice instances are
    registered by (rule, body substitution), and when a delta layer extends a
    relation appearing in a choice-element condition (e.g. a later repository
    shard adding ``version_declared`` rows for a package whose node was
    already possible), the affected choices are re-expanded and upgraded *in
    place* with the enlarged candidate set.  Sharded repositories rely on
    this: cross-shard dependencies may point at packages whose declarations
    arrive only in a later shard layer.

    All clones of one base share a :class:`SymbolTable` (and the compiled
    join plans), so id-tuples agree across the whole lineage.
    """

    def __init__(
        self,
        program: Program,
        extra_facts: Sequence[tuple] = (),
        possible_hints: Sequence[tuple] = (),
        symbols: Optional[SymbolTable] = None,
    ):
        self.program = program
        self.symbols = symbols if symbols is not None else SymbolTable()
        self.ground_program = GroundProgram()
        self.possible = _AtomDatabase()
        self.certain = _AtomDatabase()
        #: id-atom key ((pred symbol, *arg symbols)) -> AtomTable id; copied
        #: per clone together with the AtomTable so the bijection stays
        #: consistent (AtomTables of sibling clones diverge independently)
        self._atom_ids: Dict[tuple, int] = {}
        self._rule_keys: Set[tuple] = set()
        #: choice instances by (rule position, body binding ids) -> index
        #: into ``ground_program.choices``, so a later layer can *upgrade* an
        #: instance whose element expansion grew (see class docstring).
        self._choice_instances: Dict[tuple, int] = {}
        self._constraint_keys: Set[tuple] = set()
        self._minimize_keys: Set[tuple] = set()
        self._extra_facts = list(extra_facts)
        #: atoms marked *possible* (but not certain, and not facts) before
        #: grounding starts.  Sound over-approximation knob: hinted atoms
        #: that never gain support are forced false by completion, so extra
        #: hints cost ground-program size, never correctness.  A base layer
        #: uses them to pre-ground rules whose triggers arrive only in later
        #: delta layers (e.g. "any possible package may become a root").
        self._possible_hints = list(possible_hints)
        self._components: Optional[List[List[Rule]]] = None
        self._constraints: Optional[List[Rule]] = None
        self._delta: Optional[_AtomDatabase] = None
        #: how many times this grounder ran a full base grounding / delta layer
        self.base_groundings = 0
        self.delta_groundings = 0
        self._compiled: Dict[int, _CompiledStatement] = {}

    # -- public API ---------------------------------------------------------

    def add_possible_hints(self, hints) -> None:
        """Record extra possibility hints before :meth:`ground` runs
        (streamed-emission counterpart of the ``possible_hints`` ctor arg)."""
        self._possible_hints.extend(hints)

    def fact_writer(self):
        """A streaming fact sink for the base layer (call before :meth:`ground`).

        Returns ``write(atom)``: it normalizes the value atom
        (:func:`~repro.asp.syntax.ground_atom`), interns it straight into the
        certain/possible databases and the atom table, and records it so the
        grounder stays picklable — no intermediate fact list is materialized
        between the producer (e.g. the problem encoder) and the grounder.
        :meth:`ground` afterwards treats already-streamed facts as no-ops.
        """
        ids_of = self._ids_of
        possible_add = self.possible.add
        certain_add = self.certain.add
        facts_add = self.ground_program.facts.add
        extra_facts = self._extra_facts
        value_atom_id = self._value_atom_id

        def write(atom):
            atom = ground_atom(*atom)
            extra_facts.append(atom)
            key, args = ids_of(atom)
            possible_add(key, args)
            certain_add(key, args)
            facts_add(value_atom_id(atom, key, args))

        return write

    def ground(self) -> GroundProgram:
        facts, rules, constraints = self._split_statements()
        for rule in rules + constraints:
            self._check_safety(rule)
        for minimize in self.program.minimizes:
            self._check_minimize_safety(minimize)
        self._add_facts(facts)
        for atom in self._possible_hints:
            key, args = self._ids_of(atom)
            self.possible.add(key, args)
        self._components = self._stratify(rules)
        self._constraints = constraints
        for component_rules in self._components:
            self._ground_component(component_rules)
        for constraint in constraints:
            self._ground_constraint(constraint)
        for minimize in self.program.minimizes:
            self._ground_minimize(minimize)
        self.base_groundings += 1
        return self.ground_program

    def clone(self) -> "Grounder":
        """Fork the complete grounding state (program objects are shared).

        The clone can be extended with :meth:`ground_delta` without touching
        this grounder, so one base grounding can serve many solves.  Cloning
        never mutates grounded data — relations fork copy-on-write and the
        immutable program/ASTs, symbol table, and compiled plans are shared —
        so concurrent clones of one base grounder are safe from threads and
        from ``os.fork()``-ed worker processes alike (the parallel session's
        workers do exactly that), and a fully grounded ``Grounder`` is
        picklable for the on-disk ground cache.
        """
        other = Grounder.__new__(Grounder)
        other.program = self.program
        other.symbols = self.symbols
        other.ground_program = self.ground_program.copy()
        other.possible = self.possible.fork()
        other.certain = self.certain.fork()
        other._atom_ids = dict(self._atom_ids)
        other._rule_keys = set(self._rule_keys)
        other._choice_instances = dict(self._choice_instances)
        other._constraint_keys = set(self._constraint_keys)
        other._minimize_keys = set(self._minimize_keys)
        other._extra_facts = list(self._extra_facts)
        other._possible_hints = list(self._possible_hints)
        other._components = self._components
        other._constraints = self._constraints
        other._delta = None
        other.base_groundings = self.base_groundings
        other.delta_groundings = self.delta_groundings
        other._compiled = self._ensure_compiled()
        return other

    def ground_delta(
        self,
        extra_facts: Sequence[tuple] = (),
        possible_hints: Sequence[tuple] = (),
        fact_source=None,
    ) -> GroundProgram:
        """Ground additional facts on top of a completed :meth:`ground`.

        Rule instantiation is restricted to instances where at least one
        positive body literal matches an atom that is new in this layer
        (semi-naive evaluation); everything grounded before stays valid and
        is not re-derived.  ``possible_hints`` are additional layer-local
        possibility seeds with the same semantics as the constructor's: they
        become possible (and seed joins) without becoming facts.

        ``fact_source`` is the streaming variant of ``extra_facts``: a
        callable invoked with a ``write(atom)`` sink, so producers (the
        problem encoder) can emit straight into the delta layer with no
        intermediate list.
        """
        if self._components is None:
            self._extra_facts.extend(extra_facts)
            if fact_source is not None:
                fact_source(
                    lambda atom: self._extra_facts.append(ground_atom(*atom))
                )
            self._possible_hints.extend(possible_hints)
            return self.ground()
        delta = _AtomDatabase()

        def add_fact(atom):
            key, args = self._ids_of(atom)
            if self.possible.add(key, args):
                delta.add(key, args)
            self.certain.add(key, args)
            atom_id = self._value_atom_id(atom, key, args)
            self.ground_program.facts.add(atom_id)

        for atom in extra_facts:
            add_fact(atom)
        if fact_source is not None:
            fact_source(lambda atom: add_fact(ground_atom(*atom)))
        for atom in possible_hints:
            self._possible_hints.append(atom)
            key, args = self._ids_of(atom)
            if self.possible.add(key, args):
                delta.add(key, args)
        for component_rules in self._components:
            self._ground_component(component_rules, delta)
        for constraint in self._constraints:
            self._ground_constraint(constraint, delta)
        for minimize in self.program.minimizes:
            self._ground_minimize(minimize, delta)
        self.delta_groundings += 1
        return self.ground_program

    # -- interning helpers --------------------------------------------------

    def _ids_of(self, atom: tuple) -> Tuple[RelKey, tuple]:
        """Value atom tuple -> ((name, arity), interned arg ids)."""
        intern = self.symbols.intern
        return (atom[0], len(atom) - 1), tuple(intern(v) for v in atom[1:])

    def _value_atom_id(self, atom: tuple, key: RelKey, args: tuple) -> int:
        """AtomTable id for a value atom whose arg ids are already known."""
        id_key = (self.symbols.intern(atom[0]),) + args
        atom_id = self._atom_ids.get(id_key)
        if atom_id is None:
            atom_id = self.ground_program.atoms.intern(atom)
            self._atom_ids[id_key] = atom_id
        return atom_id

    def _atom_id(self, template: _AtomTemplate, args: tuple) -> int:
        """AtomTable id for (template predicate, arg ids), materializing the
        value atom only on first sight."""
        id_key = (template.pred_sid,) + args
        atom_id = self._atom_ids.get(id_key)
        if atom_id is None:
            values = self.symbols.values
            atom = (template.name,) + tuple(values[s] for s in args)
            atom_id = self.ground_program.atoms.intern(atom)
            self._atom_ids[id_key] = atom_id
        return atom_id

    def _ensure_compiled(self) -> Dict[int, _CompiledStatement]:
        compiled = self.__dict__.get("_compiled")
        if compiled is None:
            compiled = {}
            self._compiled = compiled
        return compiled

    def _compile(self, statement, kind: str) -> _CompiledStatement:
        compiled = self._ensure_compiled()
        info = compiled.get(id(statement))
        if info is None:
            info = _CompiledStatement(statement, kind, self.symbols)
            compiled[id(statement)] = info
        return info

    # -- setup ----------------------------------------------------------------

    def _split_statements(self):
        facts: List[tuple] = list(self._extra_facts)
        rules: List[Rule] = []
        constraints: List[Rule] = []
        for rule in self.program.rules:
            if rule.is_fact and rule.head.is_ground():
                facts.append(rule.head.ground({}))
            elif rule.is_constraint:
                constraints.append(rule)
            else:
                rules.append(rule)
        return facts, rules, constraints

    def _check_safety(self, rule: Rule):
        """Static safety check: every variable must be bound by a positive
        body literal (or, for conditional/choice elements, by their local
        condition)."""
        positives: List[Literal] = []
        negatives: List[Literal] = []
        comparisons: List[Comparison] = []
        conditionals: List[ConditionalLiteral] = []
        for element in rule.body:
            if isinstance(element, Literal):
                (negatives if element.negated else positives).append(element)
            elif isinstance(element, Comparison):
                comparisons.append(element)
            elif isinstance(element, ConditionalLiteral):
                conditionals.append(element)
            else:
                raise GroundingError(f"unsupported body element: {element!r}")
        bound = _collect_variables(positives)

        def require(variables: Set[str], where: str):
            unbound = variables - bound
            if unbound:
                raise GroundingError(
                    f"unsafe variables {sorted(unbound)} in {where} of rule: {rule}"
                )

        for negative in negatives:
            require({v.name for v in negative.variables()}, "negative literal")
        for comparison in comparisons:
            require({v.name for v in comparison.variables()}, "comparison")
        for conditional in conditionals:
            local = bound | _collect_variables(
                c for c in conditional.condition if isinstance(c, Literal) and not c.negated
            )
            unbound = {v.name for v in conditional.literal.variables()} - local
            if unbound:
                raise GroundingError(
                    f"unsafe variables {sorted(unbound)} in conditional literal of rule: {rule}"
                )
        if isinstance(rule.head, Atom):
            require({v.name for v in rule.head.variables()}, "head")
        elif isinstance(rule.head, Choice):
            for element in rule.head.elements:
                local = bound | _collect_variables(
                    c for c in element.condition if isinstance(c, Literal) and not c.negated
                )
                unbound = {v.name for v in element.atom.variables()} - local
                if unbound:
                    raise GroundingError(
                        f"unsafe variables {sorted(unbound)} in choice element of rule: {rule}"
                    )
            for bound_term in (rule.head.lower, rule.head.upper):
                if bound_term is not None:
                    require({v.name for v in term_variables(bound_term)}, "cardinality bound")

    def _check_minimize_safety(self, minimize: Minimize):
        for element in minimize.elements:
            positives = [
                c for c in element.condition if isinstance(c, Literal) and not c.negated
            ]
            bound = _collect_variables(positives)
            needed: Set[str] = set()
            for term in (element.weight, element.priority) + element.terms:
                needed.update(v.name for v in term_variables(term))
            for item in element.condition:
                if isinstance(item, (Comparison,)) or (
                    isinstance(item, Literal) and item.negated
                ):
                    needed.update(v.name for v in item.variables())
            unbound = needed - bound
            if unbound:
                raise GroundingError(
                    f"unsafe variables {sorted(unbound)} in minimize element: {element}"
                )

    def _add_facts(self, facts: Sequence[tuple]):
        for atom in facts:
            key, args = self._ids_of(atom)
            self.possible.add(key, args)
            self.certain.add(key, args)
            atom_id = self._value_atom_id(atom, key, args)
            self.ground_program.facts.add(atom_id)

    # -- stratification ---------------------------------------------------------

    def _head_predicates(self, rule: Rule) -> List[str]:
        if isinstance(rule.head, Atom):
            return [rule.head.name]
        if isinstance(rule.head, Choice):
            return [element.atom.name for element in rule.head.elements]
        return []

    def _body_predicates(self, rule: Rule) -> List[str]:
        names = []
        for element in rule.body:
            if isinstance(element, Literal):
                names.append(element.atom.name)
            elif isinstance(element, ConditionalLiteral):
                names.append(element.literal.atom.name)
                for condition in element.condition:
                    if isinstance(condition, Literal):
                        names.append(condition.atom.name)
        if isinstance(rule.head, Choice):
            for element in rule.head.elements:
                for condition in element.condition:
                    if isinstance(condition, Literal):
                        names.append(condition.atom.name)
        return names

    def _stratify(self, rules: List[Rule]) -> List[List[Rule]]:
        """Group rules into SCC components of the predicate dependency graph,
        ordered so that dependencies are grounded first."""
        rules_by_head: Dict[str, List[Rule]] = {}
        graph: Dict[str, Set[str]] = {}
        for rule in rules:
            heads = self._head_predicates(rule)
            bodies = self._body_predicates(rule)
            for head in heads:
                rules_by_head.setdefault(head, []).append(rule)
                graph.setdefault(head, set()).update(bodies)
                for body in bodies:
                    graph.setdefault(body, set())

        sccs = _tarjan_sccs(graph)
        # _tarjan_sccs returns components in reverse topological order of the
        # "head depends on body" graph, i.e. dependencies come first.
        components: List[List[Rule]] = []
        seen_rules: Set[int] = set()
        for component in sccs:
            component_rules: List[Rule] = []
            for predicate in component:
                for rule in rules_by_head.get(predicate, []):
                    if id(rule) not in seen_rules:
                        seen_rules.add(id(rule))
                        component_rules.append(rule)
            if component_rules:
                components.append(component_rules)
        return components

    # -- component grounding -------------------------------------------------

    def _ground_component(self, rules: List[Rule], delta: Optional[_AtomDatabase] = None):
        def ground_rule(rule: Rule, rule_delta: Optional[_AtomDatabase]) -> bool:
            if isinstance(rule.head, Choice):
                return self._ground_choice_rule(rule, rule_delta)
            return self._ground_normal_rule(rule, rule_delta)

        if delta is None:
            changed = True
            while changed:
                changed = False
                for rule in rules:
                    if ground_rule(rule, None):
                        changed = True
            return

        # Semi-naive: each iteration seeds joins only from the atoms derived
        # in the previous one, so the pass-wide delta is never re-scanned.
        current = delta
        while True:
            next_delta = _AtomDatabase()
            self._delta = next_delta
            try:
                for rule in rules:
                    if isinstance(rule.head, Choice) and self._choice_elements_touched(
                        rule, current
                    ):
                        # an element-condition relation grew: existing
                        # instances may be missing candidates, so re-run
                        # the rule against the full database (the
                        # instance registry upgrades them in place)
                        ground_rule(rule, None)
                    else:
                        ground_rule(rule, current)
            finally:
                self._delta = None
            new_atoms = False
            for key, relation in next_delta.relations.items():
                for args in relation.tuples:
                    delta.add(key, args)
                    new_atoms = True
            if not new_atoms:
                break
            current = next_delta

    def _choice_elements_touched(self, rule: Rule, delta: _AtomDatabase) -> bool:
        """True if ``delta`` extends a relation some choice element of
        ``rule`` ranges over (so existing instances may need re-expansion)."""
        for element in rule.head.elements:
            for item in element.condition:
                if isinstance(item, Literal) and delta.count_name(item.atom.name):
                    return True
        return False

    def _add_possible(self, rel_key: RelKey, args: tuple):
        """Record a derived atom as possible (and as delta when layering)."""
        if self.possible.add(rel_key, args) and self._delta is not None:
            self._delta.add(rel_key, args)

    # -- body instantiation --------------------------------------------------

    def _instances(self, info: _CompiledStatement, delta) -> Iterator[list]:
        """Enumerate body bindings (env lists) for a compiled statement.

        With ``delta``, each positive literal with touched relations seeds a
        semi-naive plan in turn; instances touching several delta atoms come
        out once per seed — the emit methods' dedup keys make that harmless.
        Bodies without positive literals cannot gain instances from added
        facts, so they yield nothing in delta mode (as in the reference).
        """
        env = [None] * info.n_vars
        if delta is None:
            yield from _execute(info.plan(None), env, self.possible, None)
            return
        for seed, literal in enumerate(info.positives):
            relation = delta.relations.get(literal.template.rel_key)
            if relation is None or not relation.tuples:
                continue
            yield from _execute(info.plan(seed), env, self.possible, delta)

    def _materialize_body(self, info: _CompiledStatement, env: list):
        """Build (pos_atom_ids, neg_atom_ids) for one body binding.

        Positive atoms that are certain are dropped (the instance is
        partially simplified at derivation time); instances whose negative
        literals contradict certain facts return None (infeasible).  Atom
        order matches the reference grounder: positives in body order, then
        conditional expansions in body order.
        """
        certain = self.certain
        pos_ids: List[int] = []
        neg_ids: List[int] = []
        for literal in info.positives:
            template = literal.template
            args = template.build(env)
            if certain.contains(template.rel_key, args):
                continue
            pos_ids.append(self._atom_id(template, args))
        for template in info.negatives:
            args = template.build(env)
            if certain.contains(template.rel_key, args):
                return None
            neg_ids.append(self._atom_id(template, args))
        for conditional in info.conditionals:
            if not self._expand_conditional(conditional, env, pos_ids, neg_ids):
                return None
        return pos_ids, neg_ids

    def _expand_conditional(
        self,
        conditional: _CompiledConditional,
        env: list,
        pos_ids: List[int],
        neg_ids: List[int],
    ) -> bool:
        """Expand one conditional literal in place; False = body infeasible.

        Conditions range over *certain* atoms; the sub-plan runs on the same
        env (its local variables occupy disjoint slots prebound by the body
        join).
        """
        if conditional.negated_condition_msg is not None:
            raise GroundingError(conditional.negated_condition_msg)
        certain = self.certain
        template = conditional.template
        if conditional.negated:
            for _ in _execute(conditional.plan, env, certain, None):
                args = template.build(env)
                if certain.contains(template.rel_key, args):
                    return False
                neg_ids.append(self._atom_id(template, args))
        else:
            for _ in _execute(conditional.plan, env, certain, None):
                args = template.build(env)
                if certain.contains(template.rel_key, args):
                    continue  # certainly true; drop from the conjunction
                pos_ids.append(self._atom_id(template, args))
        return True

    # -- rule emission -------------------------------------------------------

    def _ground_normal_rule(self, rule: Rule, delta: Optional[_AtomDatabase] = None) -> bool:
        info = self._compile(rule, "rule")
        if info.neg_unsafe_msg is not None:
            raise GroundingError(info.neg_unsafe_msg)
        changed = False
        head_template = info.head_template
        for env in self._instances(info, delta):
            body = self._materialize_body(info, env)
            if body is None:
                continue
            if info.head_unsafe_msg is not None:
                raise GroundingError(info.head_unsafe_msg)
            pos_ids, neg_ids = body
            head_args = head_template.build(env)
            head_id = self._atom_id(head_template, head_args)
            key = (head_id, tuple(pos_ids), tuple(neg_ids))
            if key in self._rule_keys:
                continue
            self._rule_keys.add(key)
            changed = True

            self._add_possible(head_template.rel_key, head_args)

            if not pos_ids and not neg_ids:
                # The body is certainly true: the head is a fact.
                self.certain.add(head_template.rel_key, head_args)
                self.ground_program.facts.add(head_id)
                continue

            self.ground_program.rules.append(
                GroundRule(head=head_id, pos=key[1], neg=key[2])
            )
        return changed

    def _ground_choice_rule(self, rule: Rule, delta: Optional[_AtomDatabase] = None) -> bool:
        info = self._compile(rule, "choice")
        if info.neg_unsafe_msg is not None:
            raise GroundingError(info.neg_unsafe_msg)
        rule_position = self._rule_position(rule)
        key_slots = info.key_slots
        changed = False
        for env in self._instances(info, delta):
            body = self._materialize_body(info, env)
            if body is None:
                continue
            pos_ids, neg_ids = body
            candidate_ids: List[int] = []
            seen_candidates: Set[int] = set()
            for element in info.elements:
                self._expand_element(element, env, candidate_ids, seen_candidates)
            lower = self._evaluate_bound(info.lower_fn, env)
            upper = self._evaluate_bound(info.upper_fn, env)
            pos = tuple(pos_ids)
            neg = tuple(neg_ids)

            key = (rule_position, tuple(env[slot] for slot in key_slots))
            index = self._choice_instances.get(key)
            if index is None:
                self._choice_instances[key] = len(self.ground_program.choices)
                self.ground_program.choices.append(
                    GroundChoice(
                        atoms=tuple(candidate_ids),
                        pos=pos,
                        neg=neg,
                        lower=lower,
                        upper=upper,
                    )
                )
                changed = True
                continue

            # The instance exists already.  Upgrade it in place if this
            # (re-)derivation expanded to candidates the stored instance is
            # missing (an element-condition relation grew since it was
            # instantiated); keep the stored candidate order and append.
            existing = self.ground_program.choices[index]
            known = set(existing.atoms)
            novel = [cid for cid in candidate_ids if cid not in known]
            if not novel and pos == existing.pos and neg == existing.neg:
                continue
            self.ground_program.choices[index] = GroundChoice(
                atoms=existing.atoms + tuple(novel),
                pos=pos,
                neg=neg,
                lower=lower,
                upper=upper,
            )
            if novel:
                changed = True
        return changed

    def _expand_element(
        self,
        element: _CompiledElement,
        env: list,
        candidate_ids: List[int],
        seen: Set[int],
    ):
        """Append this element's candidate atom ids (per-instance dedup)."""
        if element.negated_condition_msg is not None:
            raise GroundingError(element.negated_condition_msg)
        template = element.template
        for _ in _execute(element.plan, env, self.certain, None):
            args = template.build(env)
            atom_id = self._atom_id(template, args)
            if atom_id not in seen:
                seen.add(atom_id)
                self._add_possible(template.rel_key, args)
                candidate_ids.append(atom_id)

    def _evaluate_bound(self, bound_fn, env: list) -> Optional[int]:
        if bound_fn is None:
            return None
        value = bound_fn(env)
        if not isinstance(value, int):
            raise GroundingError(f"cardinality bound is not an integer: {value!r}")
        return value

    # -- constraints and minimize --------------------------------------------

    def _ground_constraint(self, rule: Rule, delta: Optional[_AtomDatabase] = None):
        info = self._compile(rule, "constraint")
        if info.neg_unsafe_msg is not None:
            raise GroundingError(info.neg_unsafe_msg)
        for env in self._instances(info, delta):
            body = self._materialize_body(info, env)
            if body is None:
                continue
            pos_ids, neg_ids = body
            key = (tuple(pos_ids), tuple(neg_ids))
            if key in self._constraint_keys:
                continue
            self._constraint_keys.add(key)
            self.ground_program.constraints.append(
                GroundConstraint(pos=key[0], neg=key[1])
            )

    def _ground_minimize(self, minimize: Minimize, delta: Optional[_AtomDatabase] = None):
        for element in minimize.elements:
            info = self._compile(element, "minimize_element")
            if info.neg_unsafe_msg is not None:
                raise GroundingError(info.neg_unsafe_msg)
            for env in self._instances(info, delta):
                body = self._materialize_body(info, env)
                if body is None:
                    continue
                pos_ids, neg_ids = body
                weight = info.weight_fn(env)
                priority = info.priority_fn(env)
                if not isinstance(weight, int) or not isinstance(priority, int):
                    raise GroundingError(
                        f"minimize weight/priority must be integers: {element}"
                    )
                terms = tuple(fn(env) for fn in info.term_fns)
                key = (priority, weight, terms, tuple(pos_ids), tuple(neg_ids))
                if key in self._minimize_keys:
                    continue
                self._minimize_keys.add(key)
                self.ground_program.minimize_literals.append(
                    GroundMinimizeLiteral(
                        priority=priority,
                        weight=weight,
                        key=(priority, weight) + terms,
                        pos=key[3],
                        neg=key[4],
                    )
                )

    # -- registry / pickling -------------------------------------------------

    def restore_setup(self) -> None:
        """Rebuild the stratified component plan from the program AST.

        A grounder whose ground state was restored from a flat snapshot
        (:mod:`repro.asp.snapshot`) is complete — atoms, relations, rules,
        registries — but :meth:`ground_delta` also needs ``_components`` /
        ``_constraints``, and would fall back to a *full* re-ground if they
        were still ``None``.  Stratification depends only on the (already
        safety-checked) program, so recomputing it here costs microseconds
        and never touches ground state.
        """
        _facts, rules, constraints = self._split_statements()
        self._components = self._stratify(rules)
        self._constraints = constraints

    def _rule_position(self, rule: Rule) -> int:
        """A pickle-stable identity for ``rule`` (its index in the program).

        ``id(rule)`` would not survive a pickle round trip (the persistent
        ground cache pickles grounders), so registry keys use positions.  The
        id->position memo itself is process-local and dropped on pickling.
        """
        positions = self.__dict__.get("_rule_positions")
        if positions is None or id(rule) not in positions:
            positions = {id(r): i for i, r in enumerate(self.program.rules)}
            self._rule_positions = positions
        return positions[id(rule)]

    def __getstate__(self):
        state = dict(self.__dict__)
        # process-local caches: the rule-position memo keys on id() and the
        # compiled plans embed closures; both rebuild lazily after unpickling
        state.pop("_rule_positions", None)
        state.pop("_compiled", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._compiled = {}


def _tarjan_sccs(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Iterative Tarjan SCC; components are returned dependencies-first."""
    index_counter = [0]
    stack: List[str] = []
    lowlink: Dict[str, int] = {}
    index: Dict[str, int] = {}
    on_stack: Set[str] = set()
    result: List[List[str]] = []

    for start in graph:
        if start in index:
            continue
        work = [(start, iter(sorted(graph[start])))]
        index[start] = lowlink[start] = index_counter[0]
        index_counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in index:
                    index[successor] = lowlink[successor] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(sorted(graph[successor]))))
                    advanced = True
                    break
                elif successor in on_stack:
                    lowlink[node] = min(lowlink[node], index[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                result.append(component)
    return result


def ground_program(program: Program, extra_facts: Sequence[tuple] = ()) -> GroundProgram:
    """Convenience one-shot grounding of ``program`` plus ``extra_facts``."""
    return Grounder(program, extra_facts).ground()
