"""The planner against a brute-force reference.

For random conjunctive filters over random sets of indexes: every plan's
candidates contain the linear-scan answer, and when several indexes can
serve the filter, the chosen one reads no more candidates than any of them
would alone — each alternative is planned on its own and counted, no
estimate is trusted.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.documentstore import Collection, compile_matcher, plan_query
from repro.documentstore.indexes import Index, IndexSpec

FIELDS = ("a", "b", "c")
#: Scalars only, so every document makes one entry per index and a
#: candidate count is an entry count.
VALUES = st.one_of(
    st.integers(min_value=0, max_value=4), st.sampled_from(["x", "y", None, 2.5, True])
)
INDEX_KEYS = [
    "a",
    "b",
    "c",
    [("a", 1), ("b", 1)],
    [("b", 1), ("a", -1)],
    [("c", 1), ("a", 1), ("b", 1)],
    {"a": "hashed"},
    {"c": "hashed"},
]
CONDITIONS = st.one_of(
    VALUES,
    st.builds(lambda vs: {"$in": vs}, st.lists(VALUES, max_size=3)),
    st.builds(lambda op, v: {op: v}, st.sampled_from(["$gt", "$gte", "$lt", "$lte"]), VALUES),
    st.builds(lambda v, w: {"$gte": v, "$lt": w}, VALUES, VALUES),
)


@given(
    documents=st.lists(st.dictionaries(st.sampled_from(FIELDS), VALUES), max_size=40),
    keys=st.lists(st.sampled_from(INDEX_KEYS), min_size=1, max_size=4, unique_by=repr),
    query=st.dictionaries(st.sampled_from(FIELDS), CONDITIONS, min_size=1, max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_plans_contain_the_answer_and_pick_the_fewest_candidates(documents, keys, query):
    stored = dict(enumerate(documents))
    indexes = {}
    for key in keys:
        index = Index(IndexSpec.from_key_specification(key))
        index.rebuild(stored.items())
        indexes[index.spec.name] = index
    predicate = compile_matcher(query)
    answer = {doc_id for doc_id, document in stored.items() if predicate(document)}

    alone = {name: plan_query(query, {name: index}, len(stored)) for name, index in indexes.items()}
    usable = {name: plan for name, plan in alone.items() if plan.stage == "IXSCAN"}
    for plan in usable.values():
        assert set(plan.candidate_ids) >= answer
        assert len(set(plan.candidate_ids)) == len(plan.candidate_ids)

    chosen = plan_query(query, indexes, len(stored))
    if not usable:
        assert chosen.stage == "COLLSCAN"
        return
    assert chosen.stage == "IXSCAN" and chosen.index_name in usable
    assert set(chosen.candidate_ids) >= answer
    assert all(chosen.documents_examined <= plan.documents_examined for plan in usable.values())


def test_explain_names_the_index_with_fewer_candidates():
    collection = Collection(None, "sales")
    collection.insert_many([{"year": 2000 + i % 2, "city": f"c{i % 50}"} for i in range(200)])
    collection.create_index("year")
    collection.create_index("city")
    for query, examined in [
        ({"year": 2001, "city": {"$in": ["c1", "c3"]}}, 8),
        ({"year": 2001, "city": {"$in": ["c1"] * 30}}, 4),  # a repeated value is looked up once
    ]:
        plan = collection.explain(query)["queryPlanner"]["winningPlan"]
        assert (plan["indexName"], plan["keysExamined"]) == ("city_1", examined)
