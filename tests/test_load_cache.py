"""The network load cache: a hit is the parse it stands for, and a fault
of the cache only ever makes a miss.

`load_network` keeps each document it parsed under
$XDG_CACHE_HOME/synckit, keyed by the document's bytes.  Every test here
points XDG_CACHE_HOME at its own temporary directory and, but where it
says otherwise, lets documents of any size use the cache: the fixtures
are smaller than the size below which a document is only parsed.
"""

import json
import marshal
import os
import random
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from synckit import cli, network
from synckit.errors import MalformedDocument
from synckit.network import load_network, parse_network, save_network

from conftest import FIXTURE_NAMES, fixture_path
from oracles import edges_of, seeded_doc

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def cache(tmp_path, monkeypatch) -> Path:
    """A fresh cache location; returns the folder entries go to."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(network, "_CACHE_MIN_BYTES", 0)
    return tmp_path / "xdg" / "synckit"


def _fresh(path) -> network.Network:
    """The parse of a document as the loader did before it had a cache."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise MalformedDocument(f"{path}: {exc}") from None
        except RecursionError:
            raise MalformedDocument(f"{path}: nested too deeply to decode") from None
    return parse_network(doc)


def _same(net, want) -> None:
    assert net == want
    assert [type(w) for *_, w in edges_of(net)] == [type(w) for *_, w in edges_of(want)]


def _no_parse(monkeypatch) -> None:
    def refuse(doc):
        raise AssertionError("parsed, so this load was no hit")

    monkeypatch.setattr(network, "parse_network", refuse)


def _files(folder: Path) -> list[Path]:
    return sorted(folder.iterdir()) if folder.is_dir() else []


class TestHit:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_hit_equals_a_fresh_parse(self, cache, monkeypatch, name):
        path = fixture_path(name)
        want = _fresh(path)
        _same(load_network(str(path)), want)
        assert len(_files(cache)) == 1
        _no_parse(monkeypatch)
        _same(load_network(str(path)), want)

    @pytest.mark.parametrize("monoid", ["int-add", "tropical-min"])
    def test_seeded_hit_equals_a_fresh_parse(self, cache, monkeypatch, tmp_path, monoid):
        rng = random.Random(f"load-cache:{monoid}")
        paths = []
        for i in range(60):
            path = tmp_path / f"doc{i}.json"
            path.write_text(json.dumps(seeded_doc(rng, monoid)))
            paths.append(path)
        wants = [_fresh(p) for p in paths]
        pairs = [{(e["to"], e["from"]) for e in json.loads(p.read_text())["edges"]} for p in paths]
        assert any(len(edges_of(w)) < len(ps) for w, ps in zip(wants, pairs)), "no sum met the zero"
        for p, want in zip(paths, wants):
            _same(load_network(str(p)), want)
        _no_parse(monkeypatch)
        for p, want in zip(paths, wants):
            _same(load_network(str(p)), want)

    def test_a_hit_builds_a_new_network(self, cache):
        path = str(fixture_path("two_roots"))
        first = load_network(path)
        second = load_network(path)
        assert second is not first and second == first
        assert second.in_edges is not first.in_edges

    def test_the_tag_fingerprints_the_parsing_code(self):
        fp = 0
        for name in ("network.py", "monoid.py"):
            fp = zlib.crc32((SRC / "synckit" / name).read_bytes(), fp)
        assert network._cache_tag() == (
            f"synckit-network 2 {sys.implementation.cache_tag} {fp:08x}\n".encode())


def _entry(cache: Path, path) -> Path:
    """Load path once and return the one entry it left."""
    load_network(str(path))
    (entry,) = _files(cache)
    return entry


def _with_payload(good: bytes, doc_end: int, payload: bytes) -> bytes:
    """The entry good with its payload replaced, under a matching CRC-32."""
    return good[:doc_end] + zlib.crc32(payload).to_bytes(4, "little") + payload


class TestFaults:
    @pytest.mark.parametrize("damage", [
        "garbage", "empty", "truncated-document", "truncated-marshal", "marshal-garbage",
        "foreign-format", "foreign-interpreter", "foreign-fingerprint",
        "unknown-monoid", "wrong-shape", "short-rows", "wrong-arity",
    ])
    def test_a_bad_entry_is_a_miss_and_is_rewritten(self, cache, monkeypatch, damage):
        path = fixture_path("cancel_fan")
        want = _fresh(path)
        entry = _entry(cache, path)
        good = entry.read_bytes()
        tag = network._cache_tag()
        doc_end = len(tag) + 8 + path.stat().st_size
        fmt = int(tag.split()[1])
        ids, types, rows, kind = marshal.loads(good[doc_end + 4:])
        bad = {
            "garbage": bytes(random.Random(5).randrange(256) for _ in range(len(good))),
            "empty": b"",
            "truncated-document": good[:doc_end - 3],
            "truncated-marshal": good[:doc_end + 5],
            "marshal-garbage": good[:doc_end] + b"\xff\x00\x01",
            "foreign-format": good.replace(b"synckit-network %d " % fmt,
                                           b"synckit-network %d " % (fmt + 1), 1),
            "foreign-interpreter": good.replace(sys.implementation.cache_tag.encode(), b"py-0", 1),
            "foreign-fingerprint": good.replace(tag[-9:], b"%08x\n" % (int(tag[-9:-1], 16) ^ 1), 1),
            "unknown-monoid": _with_payload(good, doc_end, marshal.dumps(
                (ids, types, rows, kind.replace("int", "iot")), 2)),
            "wrong-shape": _with_payload(good, doc_end, marshal.dumps((ids, types, 7, kind), 2)),
            "short-rows": _with_payload(good, doc_end, marshal.dumps(
                (ids, types, rows[:-1], kind), 2)),
            "wrong-arity": _with_payload(good, doc_end, marshal.dumps((ids, types, rows), 2)),
        }[damage]
        assert bad != good
        entry.write_bytes(bad)
        _same(load_network(str(path)), want)
        assert _files(cache) == [entry] and entry.read_bytes() == good
        _no_parse(monkeypatch)
        _same(load_network(str(path)), want)

    def test_a_flipped_payload_byte_is_a_miss(self, cache, monkeypatch):
        """Each byte from the payload's CRC-32 on, flipped alone: the load
        parses, equals a fresh parse and rewrites the entry."""
        path = fixture_path("cancel_fan")
        want = _fresh(path)
        entry = _entry(cache, path)
        good = entry.read_bytes()
        doc_end = len(network._cache_tag()) + 8 + path.stat().st_size
        parses = []
        monkeypatch.setattr(network, "parse_network",
                            lambda doc: parses.append(1) or parse_network(doc))
        for i in range(doc_end, len(good)):
            entry.write_bytes(good[:i] + bytes([good[i] ^ 0xFF]) + good[i + 1:])
            _same(load_network(str(path)), want)
            assert entry.read_bytes() == good
        assert len(parses) == len(good) - doc_end > 50

    def test_an_entry_of_the_triples_format_is_a_miss(self, cache, monkeypatch):
        """An entry as format 1 wrote it, (receiver, sender, weight) triples
        with no CRC-32, is never read as rows, even under today's fingerprint."""
        path = fixture_path("two_roots")
        want = _fresh(path)
        entry = _entry(cache, path)
        good = entry.read_bytes()
        tag = network._cache_tag()
        old = tag.replace(b"synckit-network 2 ", b"synckit-network 1 ", 1)
        data = path.read_bytes()
        triples = (want.cell_ids, want.cell_types, edges_of(want), want.monoid.kind)
        entry.write_bytes(old + len(data).to_bytes(8, "little") + data + marshal.dumps(triples, 2))
        _same(load_network(str(path)), want)
        assert entry.read_bytes() == good
        _no_parse(monkeypatch)
        _same(load_network(str(path)), want)

    def test_an_edit_that_keeps_the_length_is_a_miss(self, cache, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"cells": [{"id": "a", "type": 1}, {"id": "b", "type": 1}],
                                    "edges": [{"from": "a", "to": "b", "weight": 1}]}))
        old = _entry(cache, path)
        path.write_text(path.read_text().replace('"weight": 1', '"weight": 7'))
        _same(load_network(str(path)), _fresh(path))
        (new,) = set(_files(cache)) - {old}
        # an entry with the old bytes under the new name is a miss too
        new.write_bytes(old.read_bytes())
        _same(load_network(str(path)), _fresh(path))
        assert edges_of(load_network(str(path))) == ((1, 0, 7),)

    @pytest.mark.parametrize("where", ["file", "file-for-folder", "read-only"])
    def test_an_unwritable_cache_changes_nothing(self, tmp_path, monkeypatch, capsys, where):
        """Every load misses, reads its document once and writes nothing."""
        xdg = tmp_path / "xdg"
        if where == "file":
            xdg.write_text("not a folder")
        elif where == "file-for-folder":
            xdg.mkdir()
            (xdg / "synckit").write_text("not a folder")
        else:
            (xdg / "synckit").mkdir(parents=True)
            os.chmod(xdg / "synckit", 0o555)
        opened = []
        real_open = open

        def watched(file, mode="r", *args, **kwargs):
            opened.append(str(file))
            # modes do not bind root, so refuse files made in a read-only folder too
            if "x" in mode and str(file).startswith(str(xdg)):
                raise PermissionError(13, "Permission denied", str(file))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(network, "open", watched, raising=False)
        monkeypatch.setattr(network, "_CACHE_MIN_BYTES", 0)
        monkeypatch.setenv("XDG_CACHE_HOME", str(xdg))
        before = sorted(p.name for p in xdg.rglob("*")) if xdg.is_dir() else None
        for name in FIXTURE_NAMES:
            path = str(fixture_path(name))
            _same(load_network(path), _fresh(path))
            assert opened.count(path) == 1
        code = cli.run(["lattice", "--network", str(fixture_path("twin_cycles_hub")),
                        "--format", "json"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "") and json.loads(out)["elements"]
        assert (sorted(p.name for p in xdg.rglob("*")) if xdg.is_dir() else None) == before
        if where == "read-only":
            os.chmod(xdg / "synckit", 0o755)

    def test_the_cli_ignores_a_cache_that_is_a_file(self, tmp_path):
        """In a child process, as a user runs it: the same output, exit 0, no stderr."""
        xdg = tmp_path / "xdg"
        xdg.write_text("not a folder")
        (doc,) = _rings(tmp_path, [128])
        assert doc.stat().st_size >= network._CACHE_MIN_BYTES
        argv = [sys.executable, "-m", "synckit.cli", "condense", "--network", str(doc),
                "--format", "json"]
        runs = []
        for home in (str(xdg), str(tmp_path / "fresh")):
            env = {**os.environ, "XDG_CACHE_HOME": home, "PYTHONPATH": str(SRC)}
            runs.append(subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60))
        assert [(r.returncode, r.stderr) for r in runs] == [(0, ""), (0, "")]
        assert runs[0].stdout == runs[1].stdout and json.loads(runs[0].stdout)["roots"]
        assert xdg.read_text() == "not a folder"
        assert len(_files(tmp_path / "fresh" / "synckit")) == 1

    @pytest.mark.parametrize("text", [
        "{not json",
        '{"cells": [{"id": "a", "type": 1}],\r\n  "edges": [\r\n  }',  # offsets after CRLF
        '{"cells": [{"id": "a", "type": 1}], "edges": [{"from": "z", "to": "a", "weight": 1}]}',
        '{"cells": [{"id": "a", "type": 0}]}',
        '{"cells": [{"id": "a", "type": %s}]}' % ("1" * 5000),
        "[" * 200000,
        b'{"cells": "\xff"}',
        '\ufeff{"cells": [{"id": "a", "type": 1}]}',
    ], ids=["json", "crlf", "unknown-cell", "type", "digits", "nesting", "utf8", "bom"])
    def test_a_malformed_document_fails_alike_and_leaves_nothing(self, cache, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(MalformedDocument) as want:
            _fresh(path)
        for _ in range(3):
            with pytest.raises(MalformedDocument) as got:
                load_network(str(path))
            assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
        assert _files(cache) == []

    def test_no_home_folder_means_no_cache(self, cache, tmp_path, monkeypatch):
        """With no XDG_CACHE_HOME and no home to expand "~" to, nothing is read or
        written relative to the working directory."""
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setattr(network.os.path, "expanduser", lambda path: path)
        monkeypatch.chdir(tmp_path)
        path = fixture_path("chain4")
        for _ in range(2):
            _same(load_network(str(path)), _fresh(path))
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    def test_a_missing_document_fails_as_before(self, cache, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_network(str(tmp_path / "absent.json"))
        assert not (tmp_path / "xdg").exists()


def _rings(tmp_path, sizes) -> list[Path]:
    paths = []
    for n in sizes:
        path = tmp_path / f"ring{n}.json"
        cells = [{"id": str(c), "type": 1} for c in range(n)]
        edges = [{"from": str(c), "to": str((c + 1) % n), "weight": 1} for c in range(n)]
        path.write_text(json.dumps({"cells": cells, "edges": edges}))
        paths.append(path)
    return paths


class TestSize:
    def test_a_small_document_is_only_parsed(self, tmp_path, monkeypatch):
        """Below _CACHE_MIN_BYTES nothing is looked up or written."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        small, large = _rings(tmp_path, [8, 128])
        assert small.stat().st_size < network._CACHE_MIN_BYTES <= large.stat().st_size
        for _ in range(2):
            _same(load_network(str(small)), _fresh(small))
        assert not (tmp_path / "xdg").exists()
        _same(load_network(str(large)), _fresh(large))
        assert len(_files(tmp_path / "xdg" / "synckit")) == 1
        _no_parse(monkeypatch)
        _same(load_network(str(large)), _fresh(large))


class TestCaps:
    def _docs(self, tmp_path, count):
        return _rings(tmp_path, range(3, 3 + count))

    def test_the_entry_count_is_capped(self, cache, monkeypatch, tmp_path):
        monkeypatch.setattr(network, "_CACHE_ENTRIES", 3)
        paths = self._docs(tmp_path, 7)
        for i, path in enumerate(paths):
            load_network(str(path))
            assert len(_files(cache)) == min(i + 1, 3)
        _no_parse(monkeypatch)
        assert load_network(str(paths[-1])).n_cells == 9

    def test_the_total_bytes_are_capped(self, cache, monkeypatch, tmp_path):
        paths = self._docs(tmp_path, 7)
        cap = 3 * _entry(cache, paths[0]).stat().st_size + 100
        monkeypatch.setattr(network, "_CACHE_BYTES", cap)
        for path in paths[1:]:
            load_network(str(path))
            assert sum(f.stat().st_size for f in _files(cache)) <= cap
        assert 1 <= len(_files(cache)) < 4
        _no_parse(monkeypatch)
        assert load_network(str(paths[-1])).n_cells == 9

    def test_a_document_past_the_byte_cap_is_not_kept(self, cache, monkeypatch, tmp_path):
        (path,) = self._docs(tmp_path, 1)
        monkeypatch.setattr(network, "_CACHE_BYTES", path.stat().st_size - 1)
        _same(load_network(str(path)), _fresh(path))
        assert _files(cache) == []

    def test_a_file_rewritten_in_place_loads_its_new_bytes(self, cache, tmp_path):
        """save_network rewrites a file in place; each load sees the bytes now there."""
        path = tmp_path / "net.json"
        nets = [_fresh(fixture_path(name)) for name in FIXTURE_NAMES]
        for net in nets:
            save_network(net, str(path))
            _same(load_network(str(path)), net)
        assert len(_files(cache)) == len(FIXTURE_NAMES)
