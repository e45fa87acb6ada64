"""The loader's content-addressed cache: a hit gives the bytes of a parse, and any fault in the cache falls back to one.

Each test points ``CONFDET_CACHE_DIR`` at a directory of its own.  The
first load of some bytes leaves an empty entry, the second stores its
result, and the third is a hit, made certain by forbidding the parse.
"""

import gc
import json
import logging
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import numpy as np
import pytest

import confdet.io as cio
from confdet.errors import ParseError, ValidationError
from confdet.io import load_dataset, save_dataset
from test_golden_reports import _data
from test_io import good_line


@pytest.fixture
def cache(tmp_path, monkeypatch):
    root = tmp_path / "cache"
    monkeypatch.setenv("CONFDET_CACHE_DIR", str(root))
    return root


def loaded(path, strict=False):
    """A load's columns as dtype, shape and bytes (an object column as its values), and its report."""
    dataset, report = load_dataset(path, strict=strict)
    columns = {}
    for f in fields(dataset):
        column = getattr(dataset, f.name)
        assert column.flags.c_contiguous and column.flags.owndata
        if column.dtype == object:
            assert {str}.issuperset(map(type, column.tolist()))
            columns[f.name] = (column.dtype, column.shape, column.tolist())
        else:
            columns[f.name] = (column.dtype, column.shape, column.tobytes())
    return columns, report


def hit(path, monkeypatch, strict=False):
    """:func:`loaded` with the parse forbidden, so that the result must come from the cache."""

    def no_parse(*args):
        raise AssertionError("parsed on what should be a cache hit")

    with monkeypatch.context() as patch:
        patch.setattr(cio, "_parse", no_parse)
        return loaded(path, strict)


def stored(path, strict=False):
    """:func:`loaded` twice, so that the second load stores the result; the first load's result."""
    first = loaded(path, strict)
    assert loaded(path, strict) == first
    return first


def uncached(path, monkeypatch, strict=False):
    with monkeypatch.context() as patch:
        patch.setenv("CONFDET_CACHE_DIR", "")
        return loaded(path, strict)


def entries(root):
    """The entries under ``root``, each as ``(code digest, file digest, size)``."""
    found = []
    for folder in sorted(root.iterdir()) if root.exists() else []:
        found += [(folder.name, entry.name, entry.stat().st_size) for entry in sorted(folder.iterdir())]
    return found


@pytest.mark.parametrize(
    "dataset",
    [lambda: _data(3), lambda: _data(4, shift=1.5), lambda: _data(3, lone_class=True)],
    ids=["golden-and-cli-golden", "golden-transfer", "golden-lone-class"],
)
def test_a_hit_gives_the_bytes_of_a_parse(tmp_path, cache, monkeypatch, dataset):
    path = tmp_path / "data.jsonl"
    save_dataset(dataset(), path)
    miss = loaded(path)
    assert [size for _, _, size in entries(cache)] == [0]  # the first load marks the bytes
    assert loaded(path) == miss
    assert [size for _, _, size in entries(cache)] > [0]  # the second stores its result
    assert hit(path, monkeypatch) == miss
    assert hit(path, monkeypatch, strict=True) == miss
    assert uncached(path, monkeypatch) == miss


def rejected_lines():
    """One line of each rejected kind, between valid ones."""
    doc = json.loads(good_line("k3"))
    doc["class_probs"] = [0.5, 0.25, 0.25]
    return [
        good_line("ok-1").encode(),
        good_line("bad").encode().replace(b"bad", b"b\xffd"),  # not UTF-8
        b"{broken",  # not JSON
        b"[1, 2]",  # not an object
        json.dumps({"image_id": "x"}).encode(),  # missing fields
        good_line("str-box").replace("[0.0, 0.0, 10.0, 10.0]", '["0", 0.0, 10.0, 10.0]').encode(),  # wrong type
        good_line("sigma").replace("[1.0, 1.0, 1.0, 1.0]", "[0.0, 1.0, 1.0, 1.0]").encode(),  # data rule
        json.dumps(doc).encode(),  # another class count
        b'{"image_id": ' + b"[" * 200_000 + b"]" * 200_000 + b"}",  # nested too deeply
        "\x0c".encode(),  # whitespace JSON does not skip
        b"",
        good_line("ok-2").encode(),
    ]


def test_a_hit_reports_and_logs_every_rejected_line_as_a_parse(tmp_path, cache, monkeypatch, caplog):
    path = tmp_path / "mixed.jsonl"
    path.write_bytes(b"\n".join(rejected_lines()) + b"\n")
    with caplog.at_level(logging.WARNING, logger="confdet.io"):
        miss = loaded(path)
        miss_log = caplog.text
        caplog.clear()
        assert loaded(path) == miss
        assert caplog.text == miss_log
        caplog.clear()
        warm = hit(path, monkeypatch)
        assert caplog.text == miss_log
    assert warm == miss
    assert miss[1].rejected_lines == tuple(range(2, 11))
    assert f"{path}: rejected 9 line(s): [2, 3, 4, 5, 6, 7, 8, 9, 10]" in miss_log


def test_every_image_id_round_trips(tmp_path, cache, monkeypatch):
    # a numpy "U" array would drop the trailing NUL; the lone surrogate is not UTF-8 text
    ids = ["nul\u0000", "\u0000", "lone-\ud800", "café", "日本", 'q"uote', "back\\slash", "", "\U0001f600"]
    path = tmp_path / "ids.jsonl"
    path.write_text("\n".join(good_line(i) for i in ids) + "\n", encoding="ascii")
    miss = stored(path)
    assert miss[0]["image_ids"][2] == ids
    assert hit(path, monkeypatch) == miss


def test_strict_loads_raise_what_a_parse_raises(tmp_path, cache, monkeypatch):
    clean = tmp_path / "clean.jsonl"
    clean.write_text(good_line("a") + "\n" + good_line("b") + "\n", encoding="utf-8")
    miss = stored(clean, strict=True)
    assert hit(clean, monkeypatch, strict=True) == miss == hit(clean, monkeypatch)

    bad = tmp_path / "bad.jsonl"
    for broken in ("{oops", json.dumps({"image_id": "x"})):
        bad.write_text(good_line("a") + "\n" + broken + "\n", encoding="utf-8")
        with pytest.raises((ParseError, ValidationError)) as cold:
            load_dataset(bad, strict=True)
        stored(bad)  # a lenient load records the rejected line
        with pytest.raises((ParseError, ValidationError)) as warm:
            load_dataset(bad, strict=True)
        assert (type(warm.value), str(warm.value), warm.value.line) == (type(cold.value), str(cold.value), 2)


def test_a_changed_byte_misses(tmp_path, cache, monkeypatch):
    path = tmp_path / "data.jsonl"
    save_dataset(_data(3), path)
    stored(path)
    data = bytearray(path.read_bytes())
    data[data.index(b"1")] = ord("2")
    path.write_bytes(bytes(data))
    assert loaded(path) == uncached(path, monkeypatch)
    assert len(entries(cache)) == 2


def test_a_changed_code_digest_misses(tmp_path, cache, monkeypatch):
    path = tmp_path / "data.jsonl"
    path.write_text(good_line() + "\n", encoding="utf-8")
    miss = stored(path)
    ((code, name, size),) = entries(cache)
    assert code == cio._code_digest().hex() and size > 0
    (cache / "keep").mkdir()  # not named like a code digest: not the cache's to remove
    monkeypatch.setattr(cio, "_code_digest", lambda: b"other rules 16 b")
    assert loaded(path) == miss
    # the entries of other code can never be read again, so their directory goes
    assert entries(cache) == [(b"other rules 16 b".hex(), name, 0)]
    assert (cache / "keep").is_dir()


def test_a_truncated_or_garbage_entry_falls_back_to_a_parse(tmp_path, cache, monkeypatch):
    path = tmp_path / "mixed.jsonl"
    path.write_text("\n".join([good_line("a"), "{oops", good_line("b")]) + "\n", encoding="utf-8")
    miss = stored(path)
    ((code, name, _),) = entries(cache)
    entry = cache / code / name
    whole = entry.read_bytes()
    head = whole.index(b"\n") + 1
    damaged = [whole[:n] for n in (0, 1, head - 2, head, head + 1, len(whole) - 1)]
    # the payload's checksum catches garbage of the right length, and a flipped bit of the head
    damaged += [whole + b"\0", whole[:head] + b"\xff" * (len(whole) - head), b"\x93NUMPY garbage"]
    damaged += [whole.replace(b'"a"', b'"c"')]
    damaged += [whole.replace(b'"n_classes": 2', b'"n_classes": 1'), whole.replace(b"rejected_lines", b"rejected")]
    for data in damaged:
        entry.write_bytes(data)
        assert loaded(path) == miss
        assert hit(path, monkeypatch) == miss  # the parse wrote the entry again
    entry.unlink()
    entry.mkdir()  # an entry that cannot be read or replaced
    assert loaded(path) == miss


def test_a_cache_that_is_off_or_unwritable_is_bypassed(tmp_path, monkeypatch):
    path = tmp_path / "data.jsonl"
    path.write_text(good_line() + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    expected = uncached(path, monkeypatch)
    assert sorted(os.listdir(tmp_path)) == ["data.jsonl"]
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    monkeypatch.setenv("CONFDET_CACHE_DIR", str(blocker / "cache"))
    assert stored(path) == expected
    assert sorted(os.listdir(tmp_path)) == ["data.jsonl", "file"]


def test_the_default_directory_is_private_and_under_the_user_cache(tmp_path, monkeypatch):
    path = tmp_path / "data.jsonl"
    path.write_text(good_line() + "\n", encoding="utf-8")
    monkeypatch.delenv("CONFDET_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    loaded(path)
    ((code, _, _),) = entries(tmp_path / "xdg" / "confdet")
    assert os.stat(tmp_path / "xdg" / "confdet").st_mode & 0o777 == 0o700
    assert os.stat(tmp_path / "xdg" / "confdet" / code).st_mode & 0o777 == 0o700
    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    loaded(path)
    assert len(entries(tmp_path / "home" / ".cache" / "confdet")) == 1


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_fifo_bypasses_the_cache(tmp_path, cache, monkeypatch):
    regular = tmp_path / "data.jsonl"
    save_dataset(_data(3).take(np.arange(50)), regular)
    fifo = tmp_path / "pipe.jsonl"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(regular.read_bytes())

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        from_fifo = loaded(fifo)
    finally:
        writer.join()
    assert entries(cache) == []
    assert from_fifo == uncached(regular, monkeypatch)


def test_a_file_descriptor_bypasses_the_cache(tmp_path, cache, monkeypatch):
    path = tmp_path / "data.jsonl"
    save_dataset(_data(3).take(np.arange(50)), path)
    for _ in range(3):
        assert loaded(os.open(path, os.O_RDONLY)) == uncached(path, monkeypatch)
    assert entries(cache) == []


def test_racing_writers_leave_one_whole_entry(tmp_path, cache, monkeypatch):
    path = tmp_path / "data.jsonl"
    save_dataset(_data(3), path)
    expected = uncached(path, monkeypatch)
    start = threading.Barrier(4)

    def load(_):
        start.wait()
        return loaded(path)

    for _ in range(2):  # racing first loads, then racing stores
        start.reset()
        with ThreadPoolExecutor(4) as pool:
            assert list(pool.map(load, range(4))) == [expected] * 4
        assert len(entries(cache)) == 1  # no temporary file is left behind
    assert hit(path, monkeypatch) == expected
    result = load_dataset(path)
    ((code, name, _),) = entries(cache)
    with ThreadPoolExecutor(4) as pool:
        list(pool.map(lambda _: cio._cache_write(str(cache / code / name), result), range(8)))
    assert len(entries(cache)) == 1
    assert hit(path, monkeypatch) == expected


def test_neither_importing_the_cli_nor_a_load_imports_hashlib(tmp_path):
    # importing hashlib maps OpenSSL, about 3 MB of peak RSS in every command
    path = tmp_path / "data.jsonl"
    path.write_text(good_line() + "\n", encoding="utf-8")
    code = (
        "import sys, confdet.cli; loaded = 'hashlib' in sys.modules; "
        f"confdet.io.load_dataset({str(path)!r}); confdet.io.load_dataset({str(path)!r}); "
        "print(loaded, 'hashlib' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out == "False False\n"


@pytest.mark.parametrize("step", ["off", "first", "stored", "hit"])
def test_no_load_leaves_a_reference_cycle(tmp_path, cache, monkeypatch, step):
    # a kept exception's traceback refers back to the frame that caught it, and np.load's
    # header parse builds cycles: either would hold a load's buffers until the next collection
    path = tmp_path / "mixed.jsonl"
    path.write_text("\n".join([good_line(), "{broken", "[1, 2]", good_line()]) + "\n", encoding="utf-8")
    if step == "off":
        monkeypatch.setenv("CONFDET_CACHE_DIR", "")
    for _ in range(["off", "first", "stored", "hit"].index(step) - 1):
        load_dataset(path)
    gc.collect()
    gc.disable()
    try:
        _, report = load_dataset(path)
        assert report.rejected_lines == (2, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert [size > 0 for _, _, size in entries(cache)] == {"off": [], "first": [False]}.get(step, [True])
