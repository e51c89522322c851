import gzip
import json

import pytest


def _forest_document(source, edit=None, target=None) -> dict:
    """The JSON document of forest file `source`, after `edit` (when given) changed it in place.

    With `target`, the document is also written there the way save_forest
    writes it: one gzip stream of its JSON text.
    """
    with gzip.open(source, "rt", encoding="utf-8") as fh:
        payload = json.load(fh)
    if edit is not None:
        edit(payload)
    if target is not None:
        with gzip.open(target, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)
    return payload


@pytest.fixture
def forest_document():
    """Reads a forest file's JSON document and writes it back, edited, as a gzip stream."""
    return _forest_document
