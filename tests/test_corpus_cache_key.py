"""`__ray_entry__`'s corpus cache must not reuse inputs of another generator."""
import __ray_entry__ as E
from wikidata_edit_history_ray.sources import corpus


def test_key_follows_params_and_generator_source(tmp_path, monkeypatch):
    name = E._corpus_cache_name(200)
    assert name.startswith("docs_200_sharded_")
    assert E._corpus_cache_name(200) == name
    assert E._corpus_cache_name(201) != name

    monkeypatch.setattr(E, "_corpus_params",
                        lambda n: dict(num_docs=n, seed=43,
                                       hot_doc_revisions=1000,
                                       hot_doc_every=20))
    assert E._corpus_cache_name(200) != name
    monkeypatch.undo()

    edited = tmp_path / "corpus.py"
    edited.write_bytes(open(corpus.__file__, "rb").read() + b"\n# edit\n")
    monkeypatch.setattr(corpus, "__file__", str(edited))
    assert E._corpus_cache_name(200) != name
