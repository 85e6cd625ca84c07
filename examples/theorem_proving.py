"""AlphaGeometry-style theorem proving: neural proposals + symbolic
deduction + a cycle-level look at the symbolic pipeline (Fig. 9).

Generates a geometry-flavored derivation problem where one auxiliary
construction is withheld, lets the (simulated) neural stage propose
candidates, closes the proof by forward chaining, and replays the SAT
certificate on the accelerator, printing the Fig. 9-style event
timeline (broadcast / reduction / FIFO / DMA / control).

Run:  python examples/theorem_proving.py
"""

from itertools import islice

from repro import ReasonSession
from repro.logic.fol.chase import ForwardChainer
from repro.trace import timeline
from repro.workloads.alphageometry import AlphaGeometryWorkload


def main() -> None:
    workload = AlphaGeometryWorkload()
    instance = workload.generate_instance("IMO", seed=0)
    problem = instance.payload
    print(f"goal: {problem.goal!r}  (provable by construction: {problem.provable})")
    print(f"facts: {len(problem.facts)}, rules: {len(problem.rules)}")

    # 1. Neural stage: propose auxiliary constructions.
    if problem.candidate_constructions:
        proposals = workload.propose_constructions(problem, instance.seed)
        print(f"LLM-stage proposals: {[repr(p) for p in proposals]}")
        facts = list(problem.facts) + proposals
    else:
        facts = list(problem.facts)

    # 2. Symbolic stage: forward chaining to fixpoint.
    chainer = ForwardChainer(max_iterations=40)
    derived = chainer.entails(facts, problem.rules, problem.goal)
    print(
        f"deduction: goal {'derived' if derived else 'not derived'} in "
        f"{chainer.stats.iterations} rounds ({chainer.stats.facts_derived} facts)"
    )
    if derived:
        for fact, rule, body in chainer.explain(problem.goal)[:5]:
            print(f"  {fact!r}  by rule [{rule}]")

    # 3. Replay the SAT certificate on the accelerator (Fig. 9), with
    # the run's event trace captured through the session API.
    formula = workload.reason_kernel(instance)
    report = ReasonSession().run(formula, backend="reason", trace=True)
    print(
        f"\nREASON symbolic replay: {report.cycles} cycles, "
        f"{report.extras['decisions']} decisions, {report.extras['conflicts']} conflicts"
    )
    print("cycle timeline (first 12 events):")
    for cycle, unit, description in islice(timeline(report.extras["trace_data"]), 12):
        print(f"  T{cycle:<6} {unit:<10} {description}")


if __name__ == "__main__":
    main()
