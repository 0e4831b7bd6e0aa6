"""DESIGN.md against the code, so the map every change reads first cannot
drift from what it maps.

Three checks, standard library and ``repro`` only:

* every citation of a DESIGN.md section in ``src/``, ``tests/``,
  ``benchmarks/``, ``.github/``, ``.claude/`` and README.md resolves: to
  a ``## N.`` or ``### N.M`` heading, to a numbered entry of §3 (cited as
  §3.1–3.6), or, when the citation adds a quoted name, to a heading, a
  bold entry or a first table cell inside the cited section (or to the
  part of one before a colon or a closing parenthetical);
* every backticked ``repro.…`` name in DESIGN.md imports and resolves by
  ``getattr``, except on a line that says "retired" (such a line names
  the commit that restores what it lists);
* §4's package tree names every subpackage and top-level module of
  ``src/repro``, and nothing else.

README.md and the verify skill are held the same way: their backticked
``repro.…`` names resolve under the same "retired" exemption, and every
backticked repo path under ``src/``, ``tests/``, ``benchmarks/``,
``bench/``, ``examples/`` or ``.github/`` exists (``bench/out/`` is the
benchmark's output, so it is exempt).
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DESIGN = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
CITING = ("src", "tests", "benchmarks", ".github", ".claude")
TEXT_SUFFIXES = {".py", ".md", ".yml", ".yaml", ".json"}
GUIDES = ("README.md", ".claude/skills/verify/SKILL.md")
PATH = re.compile(r"`((?:src|tests|benchmarks|bench|examples|\.github)/[^`\s]*)")
OUTPUT = "bench/out/"

SECTION = r"§(\d+(?:\.\d+)?)"
#: ``DESIGN.md §5``, ``DESIGN §4``, ``DESIGN.md §5, §10``, ``DESIGN.md
#: §5/§8``, ``DESIGN.md §10, "Schema 9"``, ``DESIGN.md §10 "Schema 7"
#: and "Schema 8"``; the name may wrap onto a comment's next line.
CITATION = re.compile(
    r"DESIGN(?:\.md)?`?\s*(?:#:?\s*)?" + SECTION
    + r"((?:\s*(?:,|/|and|or)\s*§\d+(?:\.\d+)?)*)"
    + r'(?:,?\s+((?:"[^"]{1,80}")(?:\s*(?:,|and|or)\s*"[^"]{1,80}")*))?')


def _name(text: str) -> str:
    """A heading, bold entry, table cell or quoted name, compared bare:
    no markup, no trailing full stop or colon, one space per gap."""
    text = re.sub(r"[`*]", "", text)
    text = re.sub(r"\s+", " ", text.replace("#:", " ")).strip()
    return text.rstrip(".:").strip()


def _outline(design: str):
    """``(anchors, names)``: every citable section number, and per
    top-level section the names a quoted citation may give."""
    anchors, names = set(), {}
    section, fenced = None, False
    for line in design.splitlines():
        if line.startswith("```"):
            fenced = not fenced
            continue
        if fenced:
            continue
        top = re.match(r"## (\d+)\. (.+)", line)
        sub = re.match(r"###+ (?:(\d+)\.(\d+) )?(.+)", line)
        if top:
            section = top.group(1)
            anchors.add(section)
            names[section] = {_name(top.group(2))}
            continue
        if section is None:
            continue
        found = []
        if sub:
            if sub.group(1):
                anchors.add("{}.{}".format(sub.group(1), sub.group(2)))
            title = sub.group(3)
            found += [title, re.sub(r"\s*\([^()]*\)$", "", title)]
        entry = re.match(r"(\d+)\. ", line)
        if section == "3" and entry:
            anchors.add("3." + entry.group(1))
        bold = re.match(r"\s*(?:[-*]\s+|\d+\.\s+)?\*\*(.+?)\*\*", line)
        if bold:
            found.append(bold.group(1))
        cell = re.match(r"\|([^|]+)\|", line)
        if cell and not set(cell.group(1)) <= set("-: "):
            found.append(cell.group(1))
        for text in found:     # "Schema 9: what moved" answers "Schema 9"
            names[section].update((_name(text),
                                   _name(re.split(r":\s", text)[0])))
    return anchors, names


def _citing_files():
    files = [ROOT / "README.md"]
    for top in CITING:
        files += [path for path in sorted((ROOT / top).rglob("*"))
                  if path.is_file() and path.suffix in TEXT_SUFFIXES
                  and "__pycache__" not in path.parts]
    return files


def _citations():
    """``(file, line, sections, quoted names)`` for every citation."""
    out = []
    for path in _citing_files():
        text = path.read_text(encoding="utf-8", errors="replace")
        for match in CITATION.finditer(text):
            sections = [match.group(1)] + re.findall(r"§(\d+(?:\.\d+)?)",
                                                     match.group(2))
            quoted = [_name(name) for name
                      in re.findall(r'"([^"]+)"', match.group(3) or "")]
            line = text.count("\n", 0, match.start()) + 1
            out.append((path.relative_to(ROOT), line, sections, quoted))
    return out


def _resolve(dotted: str):
    """Import the longest module prefix of ``dotted``, then ``getattr``
    the rest; raises ``ImportError`` / ``AttributeError`` if it does not
    resolve."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module)
        except ModuleNotFoundError as exc:
            if exc.name is None or not (module == exc.name
                                        or module.startswith(exc.name + ".")):
                raise
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(dotted)


def test_every_citation_resolves():
    anchors, names = _outline(DESIGN)
    citations = _citations()
    assert len(citations) >= 30, "the citation pattern finds too little"
    broken = []
    for path, line, sections, quoted in citations:
        where = "{}:{}".format(path, line)
        broken += ["{} §{}".format(where, sec) for sec in sections
                   if sec not in anchors]
        known = set().union(*(names.get(sec.split(".")[0], set())
                              for sec in sections))
        broken += ['{} §{} "{}"'.format(where, sections[-1], name)
                   for name in quoted if name not in known]
    assert not broken, "DESIGN.md has no such anchor:\n" + "\n".join(broken)


def _repro_names(text: str):
    """``(line, name)`` for every backticked ``repro.…`` name, except on a
    line that says "retired"."""
    return [(number, match.group(1))
            for number, line in enumerate(text.splitlines(), 1)
            if "retired" not in line.lower()
            for match in re.finditer(r"`(repro(?:\.\w+)+)", line)]


def _unresolved(doc: str, names):
    broken = []
    for number, dotted in names:
        try:
            _resolve(dotted)
        except (ImportError, AttributeError) as exc:
            broken.append("{}:{}: {} ({})".format(doc, number, dotted, exc))
    return broken


def test_every_repro_name_resolves():
    names = _repro_names(DESIGN)
    assert len(names) >= 30, "the name pattern finds too little"
    broken = _unresolved("DESIGN.md", names)
    assert not broken, "\n".join(broken)


@pytest.mark.parametrize("doc", GUIDES)
def test_every_repro_name_in_a_guide_resolves(doc):
    names = _repro_names((ROOT / doc).read_text(encoding="utf-8"))
    assert len(names) >= 3, "the name pattern finds too little"
    broken = _unresolved(doc, names)
    assert not broken, "\n".join(broken)


def _expand(path: str):
    """``a/{b,c}.py`` as ``a/b.py`` and ``a/c.py``."""
    brace = re.search(r"\{([^{}]*)\}", path)
    if brace is None:
        return [path]
    return [expanded for part in brace.group(1).split(",")
            for expanded in _expand(path[:brace.start()] + part
                                    + path[brace.end():])]


@pytest.mark.parametrize("doc", GUIDES)
def test_every_repo_path_in_a_guide_exists(doc):
    """A path may carry a pytest node id (``::name``), a line number
    (``:44``), braces or a glob; the file part must be there."""
    text = (ROOT / doc).read_text(encoding="utf-8")
    found = [(text.count("\n", 0, match.start()) + 1, match.group(1))
             for match in PATH.finditer(text)]
    assert len(found) >= 5, "the path pattern finds too little"
    missing = []
    for number, cited in found:
        path = re.sub(r":\d+$", "", cited.split("::")[0])
        for one in _expand(path):
            if one.startswith(OUTPUT):
                continue
            if not (any(ROOT.glob(one)) if "*" in one
                    else (ROOT / one).exists()):
                missing.append("{}:{}: {}".format(doc, number, cited))
    assert not missing, "no such path:\n" + "\n".join(missing)


def test_the_package_tree_names_every_package():
    section = DESIGN.split("\n## 4. ", 1)[1].split("\n## 5. ", 1)[0]
    tree = section.split("```", 2)[1]
    named = set(re.findall(r"[├└]── (\w+)", tree))
    package = ROOT / "src" / "repro"
    present = {path.parent.name for path in package.glob("*/__init__.py")}
    present |= {path.stem for path in package.glob("*.py")
                if not path.stem.startswith("__")}
    assert named == present, "missing {}, stale {}".format(
        sorted(present - named), sorted(named - present))
