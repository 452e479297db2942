"""Catalogue of mutants: deliberate one-line faults in the code that
numbers cells, assembles faces and maps cells under automorphisms, each
with the tests that must notice it.

Each entry is (name, file, old text, new text, killing test ids).  The old
text must occur exactly once in the file; ``run.py`` replaces it with the
new text in a copy of the repository and runs the killing tests there.
"""

COMPLEXES = "src/graphconf/complexes.py"
HOMOLOGY = "src/graphconf/homology.py"

FACE_TABLES = "tests/test_face_tables.py::TestAgainstNestedTupleRule"
POSITIONS = "tests/test_properties.py::test_cell_positions_are_arithmetic"
ORACLE = "tests/test_oracle_subdivision.py"

MUTANTS = [
    # -- the main model's face rows ----------------------------------------
    ("model-landed-row-at-resting-offset", COMPLEXES,
     "offsets[there] + ranks[there][face]",
     "base + ranks[there][face]",
     [f"{FACE_TABLES}::test_corpus_models[2]"]),
    ("model-resting-row-keeps-the-bit", COMPLEXES,
     "out.append((sign, base + rank[mask ^ 1 << b],",
     "out.append((sign, base + rank[mask & ~(1 << b) | 1],",
     [f"{FACE_TABLES}::test_corpus_models[2]"]),
    ("model-face-signs-all-plus", COMPLEXES,
     "                            offsets[there] + ranks[there][face]))\n"
     "                sign = -sign",
     "                            offsets[there] + ranks[there][face]))",
     [f"{FACE_TABLES}::test_corpus_models[2]"]),
    # -- the oracle's face rows ----------------------------------------------
    ("oracle-positions-off-by-one", COMPLEXES,
     "index = {c: i for i, c in enumerate(self.codes[q])}.__getitem__",
     "index = {c: i for i, c in enumerate(self.codes[q], 1)}.get",
     [f"{ORACLE}::test_integral_homology_matches_oracle[star3]"]),
    ("oracle-face-signs-all-plus", COMPLEXES,
     "                                index(code + (b - loc) * w)))\n"
     "                    sign = -sign",
     "                                index(code + (b - loc) * w)))",
     ["tests/test_complexes.py::TestBoundaryPath::"
      "test_betti_loop_leaves_no_memo[build_abrams_oracle]"]),
    # -- chain-map image positions -------------------------------------------
    ("image-at-the-source-offset", COMPLEXES,
     "return offsets[len(ms)][image] + rank[mask]",
     "return offsets[len(ms)][z] + rank[mask]",
     [f"{FACE_TABLES}::test_corpus_models[2]"]),
    ("image-relabel-dropped", COMPLEXES,
     "mask |= relabel[b]",
     "mask |= 1 << b",
     [f"{FACE_TABLES}::test_corpus_models[2]"]),
    ("image-offsets-one-degree-down", COMPLEXES,
     "return offsets[len(ms)][image] + rank[mask]",
     "return offsets[len(ms) - 1][image] + rank[mask]",
     [POSITIONS]),
    ("reversed-edge-slots-not-counted-from-the-end", COMPLEXES,
     "s = sum(first <= other < first + n for other in where) - 1 - s",
     "s = s",
     [f"{FACE_TABLES}::test_corpus_models[2]",
      f"{FACE_TABLES}::test_random_multigraphs_with_sinks"]),
    ("missing-image-not-reported", HOMOLOGY,
     "        except KeyError as exc:\n"
     "            raise HomologyError(\n"
     "                \"automorphism does not preserve the complex\") from exc",
     "        except HomologyError as exc:\n"
     "            raise HomologyError(\n"
     "                \"automorphism does not preserve the complex\") from exc",
     ["tests/test_homology.py::TestPermutationAction::"
      "test_missing_image_raises_on_first_use"]),
    # -- supports and the admissible masks -----------------------------------
    ("support-injection-drops-the-last-cell", COMPLEXES,
     "[[i for z in supported for i in range(off[z], off[z + 1])]",
     "[[i for z in supported for i in range(off[z], off[z + 1] - 1)]",
     [f"{FACE_TABLES}::test_corpus_models[2]"]),
    ("mask-ranks-off-by-one", COMPLEXES,
     "return masks, {m: i for ms in masks for i, m in enumerate(ms)}",
     "return masks, {m: i for ms in masks for i, m in enumerate(ms, 1)}",
     [POSITIONS]),
    ("clash-rule-ignores-targets", COMPLEXES,
     "clash = tuple((by_particle[p] | by_target.get(ends[e][end], 0)) >> (i + 1) << (i + 1)",
     "clash = tuple((by_particle[p] | 0) >> (i + 1) << (i + 1)",
     [f"{FACE_TABLES}::test_corpus_models[2]"]),
    ("clash-rule-blocks-sinks", COMPLEXES,
     "            if not sink[ends[e][end]]:\n"
     "                by_target",
     "            if True:\n"
     "                by_target",
     [f"{FACE_TABLES}::test_random_multigraphs_with_sinks"]),
]
