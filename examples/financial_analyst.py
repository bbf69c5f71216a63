"""The paper's motivating scenario (Example 1.1): a financial analyst asks
for recently merged companies together with their CEOs.

Two extracted relations answer the query:

* MG⟨Company, MergedWith⟩ from the WSJ stand-in corpus,
* EX⟨Company, CEO⟩ from the NYT95 stand-in corpus,

joined on Company.  The example demonstrates the paper's key observation:
*different join execution plans produce results of wildly different
quality* — we run the same join under three plans and compare good/bad
output and cost, including the erroneous join results that bad extracted
tuples induce (the ⟨Microsoft, Symantec, Steve Ballmer⟩ effect).

Run:  python examples/financial_analyst.py
"""

from repro.core import ExtractorConfig, RetrievalKind, idjn_plan, oijn_plan, zgjn_plan
from repro.experiments import TestbedConfig, build_testbed
from repro.optimizer import bind_plan

testbed = build_testbed(TestbedConfig(scale=0.6))
task = testbed.task(
    relation1="MG", relation2="EX", database1="wsj", database2="nyt95"
)
print(f"Analyst query: mergers with CEO info  ->  {task.name}")
print(f"  {task.database1.name}: {len(task.database1)} documents")
print(f"  {task.database2.name}: {len(task.database2)} documents\n")

e1 = ExtractorConfig(task.extractor1.name, 0.4)
e2 = ExtractorConfig(task.extractor2.name, 0.4)
candidates = {
    "IDJN + Scan/Scan (exhaustive)": idjn_plan(
        e1, e2, RetrievalKind.SCAN, RetrievalKind.SCAN
    ),
    "IDJN + AQG/AQG (query-based)": idjn_plan(
        e1, e2, RetrievalKind.AQG, RetrievalKind.AQG
    ),
    "OIJN + FS outer (targeted)": oijn_plan(
        e1, e2, RetrievalKind.FILTERED_SCAN, outer=1
    ),
    "ZGJN (fully interleaved)": zgjn_plan(e1, e2),
}

print(f"{'plan':<32} {'good':>6} {'bad':>6} {'precision':>10} {'time':>9}")
print("-" * 68)
executions = {}
for label, plan in candidates.items():
    executor = bind_plan(task.environment(0.4, 0.4), plan)
    execution = executor.run()  # to exhaustion: the plan's quality ceiling
    executions[label] = execution
    comp = execution.report.composition
    precision = comp.n_good / max(comp.n_total, 1)
    print(
        f"{label:<32} {comp.n_good:>6} {comp.n_bad:>6} "
        f"{precision:>10.2f} {execution.report.time.total:>8.0f}s"
    )

print("""
Note how the plans differ in *both* dimensions: the exhaustive plan finds
the most good tuples but takes longest and admits the most errors; the
query-based plans are cheaper and cleaner but cap out early — exactly the
trade-off the quality-aware optimizer navigates.
""")

# Show a concrete erroneous join result: a bad merger tuple joined with a
# good executive tuple, the paper's Figure 1 example.
execution = executions["IDJN + Scan/Scan (exhaustive)"]
for joined in execution.state.iter_results():
    merger, executive = joined.parts
    if not merger.is_good and executive.is_good:
        print("Example erroneous join result (bad merger x good CEO):")
        print(f"  Mergers:    {merger.values}   <- extraction error")
        print(f"  Executives: {executive.values}  <- correct")
        print(
            f"  Join:       {merger.values} x {executive.values}"
            "  <- WRONG answer"
        )
        break
