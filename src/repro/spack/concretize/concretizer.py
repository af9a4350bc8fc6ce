"""The ASP-based concretizer (the paper's contribution).

The pipeline follows Section V of the paper:

1. **setup** — generate facts for all possible dependencies and installs;
2. **load** — load the logic program encoding the software model;
3. **ground** — ground the program against the facts;
4. **solve** — search for the best stable model;
5. build an optimal concrete DAG from the model.

Per-phase timings are recorded exactly as in Section VII so the benchmark
harness can reproduce Figures 7a–7h.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Union

from repro.asp.configs import SolverConfig
from repro.asp.control import Control, Model
from repro.spack.architecture import Platform, default_platform
from repro.spack.compilers import CompilerRegistry
from repro.spack.concretize.encoder import ProblemEncoder
from repro.spack.concretize.explain import explain_unsat
from repro.spack.concretize.extract import built_and_reused, extract_specs, root_specs
from repro.spack.concretize.logic import logic_program
from repro.spack.errors import ConstraintProvenance, UnsatisfiableSpecError
from repro.spack.repo import Repository, builtin_repository
from repro.spack.spec import Spec
from repro.spack.spec_parser import parse_spec


@dataclass
class ConcretizationResult:
    """Everything a caller may want to know about one concretization."""

    roots: List[Spec]
    specs: Dict[str, Spec]
    costs: Dict[int, int] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    statistics: Dict[str, object] = field(default_factory=dict)
    built: Set[str] = field(default_factory=set)
    reused: Set[str] = field(default_factory=set)
    model: Optional[Model] = None

    @property
    def spec(self) -> Spec:
        """The (single) concrete root spec."""
        return self.roots[0]

    @property
    def number_of_builds(self) -> int:
        return len(self.built)

    @property
    def number_reused(self) -> int:
        return len(self.reused)

    def summary(self) -> str:
        lines = [f"concretized {len(self.specs)} nodes "
                 f"({self.number_of_builds} to build, {self.number_reused} reused)"]
        for root in self.roots:
            lines.append(root.tree())
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Serialization (persistent solve caches, see repro.spack.store)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict:
        """A JSON-serializable description of this result.

        Everything needed to *replay* the result survives the round trip:
        the concrete root DAGs, auxiliary specs, optimization costs, the
        built/reused partition, timings, and statistics.  The raw solver
        :class:`~repro.asp.control.Model` does not — it is an in-memory
        artifact of the solve and is restored as ``None``.
        """
        reachable = set()
        for root in self.roots:
            for node in root.traverse():
                reachable.add(node.name)
        return {
            "roots": [root.to_dict() for root in self.roots],
            "extra_specs": {
                name: spec.to_dict()
                for name, spec in sorted(self.specs.items())
                if name not in reachable
            },
            "costs": {str(level): cost for level, cost in self.costs.items()},
            "timings": dict(self.timings),
            "statistics": self.statistics,
            "built": sorted(self.built),
            "reused": sorted(self.reused),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ConcretizationResult":
        """Rebuild a result produced by :meth:`to_dict` (``model`` is None)."""
        roots: List[Spec] = []
        specs: Dict[str, Spec] = {}
        for payload in data["roots"]:
            root = Spec.from_dict(payload)
            roots.append(root)
            for node in root.traverse():
                specs[node.name] = node
        for name, payload in data.get("extra_specs", {}).items():
            if name not in specs:
                specs[name] = Spec.from_dict(payload)
        return cls(
            roots=roots,
            specs=specs,
            costs={int(level): cost for level, cost in data.get("costs", {}).items()},
            timings=dict(data.get("timings", {})),
            statistics=dict(data.get("statistics", {})),
            built=set(data.get("built", ())),
            reused=set(data.get("reused", ())),
            model=None,
        )


@dataclass
class UnsatOutcome:
    """A cacheable unsatisfiable outcome: the message plus its conflict core.

    What the solve cache stores for unsat solves — keyed by the same
    content-hash keys as satisfiable results — so warm replays raise an
    :class:`UnsatisfiableSpecError` with an explanation identical to the
    original solve's, without re-running MUS extraction.
    """

    message: str
    explanation: List[ConstraintProvenance] = field(default_factory=list)
    specs: List[str] = field(default_factory=list)

    @classmethod
    def from_error(cls, error: UnsatisfiableSpecError) -> "UnsatOutcome":
        return cls(str(error), list(error.explanation), list(error.specs))

    def to_error(self) -> UnsatisfiableSpecError:
        """A fresh error to raise (never re-raise a cached exception object)."""
        return UnsatisfiableSpecError(
            self.message, explanation=list(self.explanation), specs=list(self.specs)
        )

    def to_dict(self) -> Dict:
        return {
            "unsat": True,
            "message": self.message,
            "explanation": [p.to_dict() for p in self.explanation],
            "specs": list(self.specs),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "UnsatOutcome":
        return cls(
            message=data.get("message", ""),
            explanation=[
                ConstraintProvenance.from_dict(p) for p in data.get("explanation", ())
            ],
            specs=list(data.get("specs", ())),
        )


def result_from_solve(
    abstract: Sequence[Spec],
    result,
    statistics: Dict[str, object],
    explainer=None,
) -> ConcretizationResult:
    """Turn a satisfiable solver outcome into a :class:`ConcretizationResult`
    (shared by :class:`Concretizer` and the batch concretization session).

    ``explainer`` is an optional zero-argument callable returning the
    minimal conflict core (a list of
    :class:`~repro.spack.errors.ConstraintProvenance`); it is only invoked
    on unsat, and any failure inside it degrades to an explanation-free
    error rather than masking the unsat itself.
    """
    if not result.satisfiable:
        requested = ", ".join(str(s) for s in abstract)
        explanation: List[ConstraintProvenance] = []
        if explainer is not None:
            try:
                explanation = list(explainer())
            except Exception:
                explanation = []
        message = f"no valid concretization exists for: {requested}"
        if explanation:
            core = "\n".join(
                f"  {index}. {entry.describe()}"
                for index, entry in enumerate(explanation, 1)
            )
            message = f"{message}\nminimal conflict core:\n{core}"
        raise UnsatisfiableSpecError(
            message,
            explanation=explanation,
            specs=[str(s) for s in abstract],
        )

    specs_by_name = extract_specs(result.model)
    roots = root_specs(result.model, specs_by_name)
    built, reused = built_and_reused(result.model)

    return ConcretizationResult(
        roots=roots,
        specs=specs_by_name,
        costs=result.costs,
        timings=result.timings,
        statistics=statistics,
        built=built,
        reused=reused,
        model=result.model,
    )


class Concretizer:
    """The new, complete, optimizing concretizer."""

    def __init__(
        self,
        repo: Optional[Repository] = None,
        platform: Optional[Platform] = None,
        compilers: Optional[CompilerRegistry] = None,
        store=None,
        reuse: bool = False,
        config: Optional[SolverConfig] = None,
    ):
        self.repo = repo or builtin_repository()
        self.platform = platform or default_platform()
        self.compilers = compilers or CompilerRegistry()
        self.store = store
        self.reuse = reuse
        self.config = config or SolverConfig.preset("tweety")

    # ------------------------------------------------------------------

    def _as_specs(self, specs: Sequence[Union[str, Spec]]) -> List[Spec]:
        parsed: List[Spec] = []
        for spec in specs:
            parsed.append(parse_spec(spec) if isinstance(spec, str) else spec.copy())
        return parsed

    def solve(self, specs: Sequence[Union[str, Spec]]) -> ConcretizationResult:
        """Concretize one or more root specs together (unified concretization)."""
        abstract = self._as_specs(specs)
        control = Control(config=self.config)

        # setup: generate the problem facts
        with control.timer.phase("setup"):
            encoder = ProblemEncoder(
                self.repo,
                platform=self.platform,
                compilers=self.compilers,
                store=self.store,
                reuse=self.reuse,
            )
            facts = encoder.encode(abstract)

        # load / ground / solve
        control.load(logic_program())
        control.add_facts(facts)
        control.ground()
        result = control.solve()

        statistics: Dict[str, object] = {
            "encoding": encoder.stats.as_dict(),
            **result.statistics,
        }

        def explainer():
            return explain_unsat(facts, encoder.provenance, self.config)

        return result_from_solve(abstract, result, statistics, explainer=explainer)

    def concretize(self, spec: Union[str, Spec]) -> ConcretizationResult:
        """Concretize a single abstract spec."""
        return self.solve([spec])


def concretize(
    spec: Union[str, Spec],
    repo: Optional[Repository] = None,
    reuse: bool = False,
    store=None,
    **kwargs,
) -> ConcretizationResult:
    """Module-level convenience wrapper (mirrors ``spack spec``)."""
    concretizer = Concretizer(repo=repo, reuse=reuse, store=store, **kwargs)
    return concretizer.concretize(spec)
