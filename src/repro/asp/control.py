"""clingo-like facade over the parser, grounder, completion, and optimizer.

Typical use (mirroring how the concretizer drives clingo in the paper)::

    ctl = Control(config=SolverConfig.preset("tweety"))
    ctl.load(LOGIC_PROGRAM_TEXT)          # "load" phase
    ctl.add_fact("node", "hdf5")          # facts from the problem instance
    ctl.ground()                          # "ground" phase
    result = ctl.solve()                  # "solve" phase
    if result.satisfiable:
        for atom in result.model.atoms("version"):
            ...

Phase timings (load/ground/solve) are recorded on ``ctl.timer`` so the
benchmark harness can reproduce the paper's Figure 7 measurements; the caller
(the Spack layer) accounts the fact-generation "setup" phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.asp.completion import BaseCompletion, CompletionTemplate, complete
from repro.asp.configs import SolverConfig
from repro.asp.ground import GroundProgram
from repro.asp.grounder import Grounder
from repro.asp.optimization import OptimizationResult, Optimizer
from repro.asp.parser import parse_program
from repro.asp.solver import CDCLSolver, collector_paused
from repro.asp.stats import PhaseTimer
from repro.asp.syntax import Program, ground_atom

#: Parsed-program memo: the concretizer loads the same ~300-line logic program
#: for every solve, so lexing/parsing it once per process is a free win.  The
#: cached Program objects are treated as immutable by all consumers.
_PARSE_CACHE: Dict[str, Program] = {}
_PARSE_CACHE_LIMIT = 32

def parse_program_cached(text: str) -> Program:
    """Parse ASP source text with per-process memoization.

    Callers must not mutate the returned Program (extend a fresh Program
    instead, as :meth:`Control.load` does).
    """
    program = _PARSE_CACHE.get(text)
    if program is None:
        program = parse_program(text)
        if len(_PARSE_CACHE) >= _PARSE_CACHE_LIMIT:
            _PARSE_CACHE.clear()
        _PARSE_CACHE[text] = program
    return program


class Model:
    """A stable model: a set of ground atoms with convenient accessors."""

    def __init__(self, atoms: Iterable[Tuple], costs: Optional[Dict[int, int]] = None):
        self._atoms: Set[Tuple] = set(atoms)
        self.costs: Dict[int, int] = dict(costs or {})
        self._by_predicate: Dict[str, List[Tuple]] = {}
        for atom in self._atoms:
            self._by_predicate.setdefault(atom[0], []).append(atom)
        for values in self._by_predicate.values():
            values.sort(key=lambda a: tuple(str(x) for x in a[1:]))

    def __contains__(self, atom: Tuple) -> bool:
        return tuple(atom) in self._atoms

    def __len__(self) -> int:
        return len(self._atoms)

    def __iter__(self):
        return iter(self._atoms)

    def atoms(self, predicate: Optional[str] = None) -> List[Tuple]:
        """All atoms, or just those of one predicate."""
        if predicate is None:
            return sorted(self._atoms, key=lambda a: (a[0],) + tuple(str(x) for x in a[1:]))
        return list(self._by_predicate.get(predicate, []))

    def arguments(self, predicate: str) -> List[Tuple]:
        """Argument tuples (without the predicate name) of one predicate."""
        return [atom[1:] for atom in self._by_predicate.get(predicate, [])]

    def holds(self, predicate: str, *args) -> bool:
        return ground_atom(predicate, *args) in self._atoms

    def cost_tuple(self) -> Tuple[int, ...]:
        return tuple(self.costs[p] for p in sorted(self.costs, reverse=True))


@dataclass
class SolveResult:
    """Outcome of :meth:`Control.solve`."""

    satisfiable: bool
    optimal: bool = False
    model: Optional[Model] = None
    costs: Dict[int, int] = field(default_factory=dict)
    statistics: Dict[str, object] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.satisfiable


class Control:
    """Top-level entry point of the ASP system (the 'clingo' object).

    A control keeps its ground program, never its solver: :meth:`solve`
    builds the completed program, the solver and the optimizer, and frees
    them before it returns (see :func:`~repro.asp.solver.collector_paused`).
    """

    def __init__(self, config: Optional[SolverConfig] = None):
        self.config = config or SolverConfig.preset("tweety")
        self.timer = PhaseTimer()
        self.program = Program()
        self.extra_facts: List[Tuple] = []
        self.ground_program: Optional[GroundProgram] = None
        #: the completion state of the base this control was forked from
        self._base_completion: Optional[BaseCompletion] = None

    # -- program construction ------------------------------------------------

    def load(self, text: str) -> "Control":
        """Parse ASP source text and add it to the program ("load" phase)."""
        with self.timer.phase("load"):
            parsed = parse_program_cached(text)
            self.program.extend(parsed)
        return self

    # clingo spells this `add`; keep both for familiarity.
    add = load

    def add_fact(self, name: str, *args) -> "Control":
        """Add one ground fact built from Python values (str/int/bool)."""
        self.extra_facts.append(ground_atom(name, *args))
        return self

    def add_facts(self, facts: Iterable[Tuple]) -> "Control":
        """Add many ground facts; each is ``(predicate, arg1, arg2, ...)``."""
        for atom in facts:
            self.add_fact(*atom)
        return self

    # -- grounding ------------------------------------------------------------

    def ground(self) -> GroundProgram:
        """Ground the program against the accumulated facts ("ground" phase)."""
        with self.timer.phase("ground"):
            grounder = Grounder(self.program, self.extra_facts)
            self.ground_program = grounder.ground()
        return self.ground_program

    def adopt_ground(
        self, ground_program: GroundProgram, base: Optional[BaseCompletion] = None
    ) -> "Control":
        """Adopt an externally produced ground program (see
        :class:`PreparedProgram`); :meth:`solve` will use it directly,
        completing it from ``base``'s template when one is given."""
        self.ground_program = ground_program
        self._base_completion = base
        return self

    # -- solving ---------------------------------------------------------------

    def _build_solver(self) -> CDCLSolver:
        return CDCLSolver(**self.config.solver_kwargs())

    def _search(self) -> Tuple[OptimizationResult, Dict[str, object]]:
        """Complete and optimize; returns the outcome and the statistics.
        The completed program, solver and optimizer are locals, freed by
        reference counting when this returns."""
        completed = complete(
            self.ground_program, self._build_solver(), base=self._base_completion
        )
        optimizer = Optimizer(completed, enforce_stability=self.config.enforce_stability)
        outcome = optimizer.optimize()
        if self._base_completion is not None:
            self._base_completion.count_skipped(optimizer.enforcer.skipped)
        return outcome, {
            "ground": self.ground_program.statistics(),
            "solver": completed.solver.statistics(),
            "optimization": optimizer.statistics(),
            "config": self.config.name,
        }

    def solve(self, on_model=None) -> SolveResult:
        """Complete, search, and optimize ("solve" phase), with the cyclic
        collector paused from the solver's construction to its release."""
        if self.ground_program is None:
            self.ground()

        with self.timer.phase("solve"), collector_paused():
            outcome, statistics = self._search()

        if not outcome.satisfiable:
            return SolveResult(
                satisfiable=False,
                statistics=statistics,
                timings=self.timer.as_dict(),
            )

        atom_table = self.ground_program.atoms
        model = Model(
            (atom_table.atom(atom_id) for atom_id in outcome.atoms),
            costs=outcome.costs,
        )
        if on_model is not None:
            on_model(model)
        return SolveResult(
            satisfiable=True,
            optimal=outcome.optimal,
            model=model,
            costs=outcome.costs,
            statistics=statistics,
            timings=self.timer.as_dict(),
        )

    # -- convenience ---------------------------------------------------------------

    def solve_text(self, text: str, facts: Sequence[Tuple] = ()) -> SolveResult:
        """One-shot helper: load text, add facts, ground, and solve."""
        self.load(text)
        self.add_facts(facts)
        self.ground()
        return self.solve()


class PreparedProgram:
    """A logic program parsed once and grounded once against a shared base
    fact layer, from which per-solve controls are forked cheaply.

    This is the reusable-ground-program primitive behind batch
    concretization: the program text and the spec-independent facts are
    lexed/parsed/grounded exactly once, and every :meth:`fork` only clones
    the ground state and layers its extra facts incrementally
    (:meth:`repro.asp.grounder.Grounder.ground_delta`).

    The delta facts handed to :meth:`fork` must obey the layering contract
    documented on :class:`~repro.asp.grounder.Grounder` (fresh condition
    ids/keys only).

    **Thread- and pickle-safety.**  Once ``__init__`` returns, the ground
    state of a prepared program is only ever *read*: :meth:`fork` clones it
    and mutates the clone, never the base.  The one thing that changes later
    is the base's :class:`~repro.asp.completion.BaseCompletion`: the first
    solve on a fork (or the snapshot writer, :mod:`repro.asp.snapshot`)
    builds the base's completion template, under the completion's own
    lock, so solves forking one base concurrently on threads (a service
    tenant's solver threads) build it once; solves count what they skipped
    there, and the ``forks`` counter is the other, benign exception.  The
    persistent ground cache
    (:class:`repro.spack.store.PersistentGroundCache`) pickles prepared
    programs to disk for later processes.  Pickling keeps only the parsed
    program and the ground state: templates and counters are per-process and
    start afresh.  A ground snapshot (:mod:`repro.asp.snapshot`) of a base's
    last step pickles its template beside it, so a program read from one
    starts with the template and builds none.
    """

    def __init__(
        self,
        text: str,
        base_facts: Sequence[Tuple] = (),
        config: Optional[SolverConfig] = None,
        possible_hints: Sequence[Tuple] = (),
        fact_source=None,
    ):
        """``fact_source``, when given, is a callable invoked with a
        ``write(atom)`` sink; it streams base facts straight into the
        grounder (no intermediate fact list) and may *return* extra possible
        hints computed during emission (e.g. hints that depend on what was
        encoded).  It composes with, and is ordered after, ``base_facts``;
        its time is accounted as "setup", not "ground".
        """
        self.config = config or SolverConfig.preset("tweety")
        self.timer = PhaseTimer()
        with self.timer.phase("load"):
            self.program = parse_program_cached(text)
        atoms = [ground_atom(*fact) for fact in base_facts]
        hints = [ground_atom(*hint) for hint in possible_hints]
        with self.timer.phase("ground"):
            self._base = Grounder(self.program, atoms, possible_hints=hints)
            if fact_source is not None:
                with self.timer.phase("setup"):
                    streamed_hints = fact_source(self._base.fact_writer())
                if streamed_hints:
                    self._base.add_possible_hints(
                        ground_atom(*hint) for hint in streamed_hints
                    )
            self._base.ground()
        self._reset_solve_state()

    def _reset_solve_state(self, template: Optional[CompletionTemplate] = None) -> None:
        """Fresh per-process solve state: no forks yet, and ``template`` (or
        none, to be built by the first solve)."""
        self.forks = 0
        self._completion = BaseCompletion(self.base_ground_program, template)

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_completion", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._reset_solve_state()

    @property
    def base_ground_program(self) -> GroundProgram:
        """The shared (spec-independent) ground program."""
        return self._base.ground_program

    def extend(
        self,
        extra_facts: Sequence[Tuple] = (),
        possible_hints: Sequence[Tuple] = (),
    ) -> "PreparedProgram":
        """A new prepared program layering more *base* facts onto this one.

        Where :meth:`fork` yields a throwaway per-solve :class:`Control`,
        ``extend`` yields another shareable :class:`PreparedProgram`: the
        grounding state is cloned and the new facts (plus layer-local
        possibility hints) are grounded incrementally on the clone, so
        ``self`` is never touched and both programs remain independently
        forkable and picklable.  Sharded repository sessions chain one
        ``extend`` per shard layer, caching every prefix of the chain.
        """
        layered = PreparedProgram.__new__(PreparedProgram)
        layered.config = self.config
        layered.timer = PhaseTimer()
        layered.program = self.program
        atoms = [ground_atom(*fact) for fact in extra_facts]
        hints = [ground_atom(*hint) for hint in possible_hints]
        with layered.timer.phase("ground"):
            grounder = self._base.clone()
            grounder.ground_delta(atoms, possible_hints=hints)
        layered._base = grounder
        layered._reset_solve_state()
        return layered

    def statistics(self) -> Dict[str, object]:
        return {
            "base_groundings": self._base.base_groundings,
            "forks": self.forks,
            "base_ground": self._base.ground_program.statistics(),
            "base_timings": self.timer.as_dict(),
            **self._completion.statistics(),
        }

    def fork(
        self,
        extra_facts: Sequence[Tuple] = (),
        config: Optional[SolverConfig] = None,
        fact_source=None,
    ) -> Control:
        """A :class:`Control` holding base + ``extra_facts``, ready to solve.

        Only the delta facts are ground here; the shared base program is
        reused as-is.  The returned control's timer accounts the incremental
        grounding under "ground" (its "load" is zero — parsing happened once,
        in :meth:`__init__`).  ``fact_source`` streams additional delta
        facts, same contract as in :meth:`__init__` (hints it returns are
        ignored here — the delta layer derives possibility itself), and its
        time is likewise accounted as "setup".
        """
        self.forks += 1
        control = Control(config=config or self.config)

        def timed_source(write):
            with control.timer.phase("setup"):
                fact_source(write)

        with control.timer.phase("ground"):
            grounder = self._base.clone()
            atoms = [ground_atom(*fact) for fact in extra_facts]
            grounder.ground_delta(
                atoms, fact_source=None if fact_source is None else timed_source
            )
        control.adopt_ground(grounder.ground_program, base=self._completion)
        return control


def solve_program(
    text: str,
    facts: Sequence[Tuple] = (),
    config: Optional[SolverConfig] = None,
) -> SolveResult:
    """Module-level convenience wrapper used widely in tests and examples."""
    control = Control(config=config)
    return control.solve_text(text, facts)
