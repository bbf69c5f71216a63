"""The paper's Figure 1 on real English text.

Builds two tiny text databases from hand-written articles — a financial
blog ("SeekingAlpha") and a newspaper archive ("WSJ") — extracts
Mergers⟨Company, MergedWith⟩ and Executives⟨Company, CEO⟩ with the
out-of-the-box :class:`~repro.extraction.WindowExtractor`, verifies tuples
against a gold set (as the paper does against a Thomson-Reuters gold set),
and joins them.

The run reproduces the figure's punchline: the extractor picks up the
*rumoured* Microsoft–Symantec merger as a tuple (raise θ to 0.5 and it
would also miss the real Microsoft–aQuantive deal, trading errors for
misses), and the erroneous base tuple joins with a perfectly correct
Executives tuple into the wrong answer ⟨Microsoft, Symantec, Steve
Ballmer⟩.

Run:  python examples/real_text_demo.py
"""

from repro.core import RelationSchema, TreeJoinState
from repro.extraction import WindowExtractor
from repro.textdb import database_from_texts

# -- the corpora -------------------------------------------------------------

seeking_alpha = [
    "Microsoft merged with Softricity this week, analysts said. "
    "The deal closed quickly.",
    "Rumors that Microsoft merged with Symantec were never confirmed, "
    "but traders bought anyway.",
    "After months of talks, Microsoft finally merged with aQuantive, "
    "a large advertising firm.",
    "Merck announced strong earnings. Nothing else happened today.",
]

wsj = [
    "Steve Ballmer, the chief executive of Microsoft, spoke at the summit.",
    "Richard Clark leads Merck; the Merck CEO Richard Clark outlined a plan.",
    "Apple veterans recall when Vadim Zlotnikov advised the Apple board.",
]

blog = database_from_texts(seeking_alpha, name="SeekingAlpha")
paper = database_from_texts(wsj, name="WSJ")

# -- the extractors -----------------------------------------------------------

companies = frozenset(
    {"microsoft", "softricity", "symantec", "aquantive", "merck", "apple"}
)
people = frozenset(
    {"steve_ballmer", "richard_clark", "vadim_zlotnikov"}
)
# Multi-word names arrive as separate tokens in raw text; for this demo we
# pre-join them (a real pipeline's NER does this chunking).
def chunk_names(db_texts):
    return [
        t.replace("Steve Ballmer", "steve_ballmer")
        .replace("Richard Clark", "richard_clark")
        .replace("Vadim Zlotnikov", "vadim_zlotnikov")
        for t in db_texts
    ]

paper = database_from_texts(chunk_names(wsj), name="WSJ")

GOLD_MERGERS = {("microsoft", "softricity"), ("microsoft", "aquantive")}
GOLD_EXECUTIVES = {
    ("microsoft", "steve_ballmer"),
    ("merck", "richard_clark"),
}

mergers_extractor = WindowExtractor(
    RelationSchema("Mergers", ("Company", "MergedWith")),
    {"Company": companies, "MergedWith": companies},
    pattern_terms=["merged", "merger", "deal", "acquired"],
    theta=0.3,
    label_oracle=lambda values: values in GOLD_MERGERS,
)
executives_extractor = WindowExtractor(
    RelationSchema("Executives", ("Company", "CEO")),
    {"Company": companies, "CEO": people},
    pattern_terms=["chief", "executive", "ceo", "leads"],
    theta=0.3,
    label_oracle=lambda values: values in GOLD_EXECUTIVES,
)

# -- extract ------------------------------------------------------------------

print("Mergers extracted from SeekingAlpha:")
mergers = []
for document in blog.documents:
    for tup in mergers_extractor.extract(document):
        if tup.values[0] == tup.values[1]:
            continue  # self-pairs from symmetric dictionaries
        mergers.append(tup)
        flag = "good" if tup.is_good else "BAD"
        print(f"  {tup.values}  conf={tup.confidence:.2f}  [{flag}]")

print("\nExecutives extracted from WSJ:")
executives = []
for document in paper.documents:
    for tup in executives_extractor.extract(document):
        executives.append(tup)
        flag = "good" if tup.is_good else "BAD"
        print(f"  {tup.values}  conf={tup.confidence:.2f}  [{flag}]")

# -- join ---------------------------------------------------------------------

state = TreeJoinState.star(
    (mergers_extractor.schema, executives_extractor.schema)
)
state.add(1, mergers)
state.add(2, executives)

print("\nJoin results (Company, MergedWith, CEO):")
company = state.join_indexes[1]  # stated once, from the merger tuple
for joined in state.iter_results():
    merger, executive = joined.parts
    ceo = executive.values[:company] + executive.values[company + 1:]
    flag = "good" if joined.is_good else "WRONG"
    print(f"  {merger.values + ceo}  [{flag}]")

comp = state.composition
print(
    f"\nComposition: {comp.n_good} good, {comp.n_bad} bad — the rumoured "
    "Microsoft–Symantec tuple joined a correct CEO tuple into a wrong answer, "
    "exactly the paper's Figure 1."
)
