"""Randomized differential tests: sequence packing and chunk dedup against
brute-force sequential references on adversarial data."""
import numpy as np
import pyarrow as pa
import pytest


@pytest.mark.parametrize("seed", [0, 1])
def test_pack_sequences_vs_sequential(ray_session, seed):
    import ray.data

    from wikidata_edit_history_ray.stages.packing import pack_sequences

    rng = np.random.RandomState(seed)
    n = 400
    ids = rng.permutation(10_000)[:n].astype(np.int64)  # sparse, unordered
    toks = rng.randint(0, 300, size=n).astype(np.int64)
    t = pa.table({"doc_id": pa.array(ids), "tok": pa.array(toks)})
    got = {r["doc_id"]: r["pack_id"] for r in pack_sequences(
        ray.data.from_arrow(t, override_num_blocks=6), "tok", 777,
        num_ranges=9).take_all()}
    order = np.argsort(ids)
    acc = 0
    for j in order:
        assert got[int(ids[j])] == acc // 777, (seed, int(ids[j]))
        acc += int(toks[j])


@pytest.mark.parametrize("seed,broadcast_limit",
                         [(0, 10**6), (1, 10**6), (0, 0), (1, 0)])
def test_chunk_dedup_vs_bruteforce(ray_session, seed, broadcast_limit):
    """Random small-vocab corpora (guaranteed cross-doc chunk collisions,
    empty docs, string ids) through both the broadcast and forced-shuffle
    paths of chunk_dedup."""
    from collections import Counter

    import ray.data

    from wikidata_edit_history_ray.stages.text_ops import (_doc_chunks,
                                                           chunk_dedup)

    rng = np.random.RandomState(seed)
    vocab = ["w%d" % i for i in range(9)]
    texts = [" ".join(rng.choice(vocab, size=rng.randint(0, 14)))
             for _ in range(120)]
    texts[0] = texts[1] = ""  # shared empty chunk
    ids = ["d%03d" % i for i in range(120)]
    W, MD = int(rng.randint(1, 4)), int(rng.randint(2, 4))

    cnt = Counter()
    for t in texts:
        for ch in set(_doc_chunks(t, W)):
            cnt[ch] += 1
    freq = {k for k, v in cnt.items() if v >= MD}
    expect = {}
    for d, t in zip(ids, texts):
        chs = _doc_chunks(t, W)
        kept = [c for c in chs if c not in freq]
        expect[d] = (" ".join(kept) if kept else None,
                     len(chs) - len(kept), len(chs))

    ds = ray.data.from_arrow(pa.table({"doc_id": ids, "text": texts}),
                             override_num_blocks=6)
    res = chunk_dedup(ds, chunk_words=W, min_docs=MD,
                      broadcast_limit=broadcast_limit).to_pandas()
    got = {r.doc_id: (r.clean_text if isinstance(r.clean_text, str)
                      else None,
                      int(r.removed_chunks), int(r.total_chunks))
           for r in res.itertuples()}
    assert got == expect
