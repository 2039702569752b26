PYTHON ?= python3

.PHONY: test acceptance reproduce-paper regen-expected digests check bench bench-pairs src-lines

test:
	$(PYTHON) -m pytest -q

acceptance:
	$(PYTHON) -m pytest tests/test_acceptance.py -v -s

# Re-runs the built-in worked-example suite and diffs against the committed
# expected output; any drift is a regression.
reproduce-paper:
	$(PYTHON) scripts/reproduce_paper.py > .reproduce_paper.out
	diff -u expected/reproduce_paper.txt .reproduce_paper.out
	@rm -f .reproduce_paper.out
	@echo "reproduce-paper: outputs match the committed expectations"

# Tier-1 tests, the worked examples, and the benchmark's self-tests (outside
# tier-1's testpaths).  Renaming a padicres name that the benchmark's tracer
# rebinds also fails tier-1, in tests/test_tracer_targets.py.
check: test reproduce-paper
	$(PYTHON) -m pytest -q perfbench

# One 20 s untraced run of each benchmark workload at seed 1; each run
# prints its final JSON line (the full record goes to perfbench/results/).
bench:
	for w in res-large windows whitehead-2adic; do \
		$(PYTHON) perfbench/run.py --workload $$w --seed 1 --seconds 20 --trace 0 || exit 1; \
	done

# Alternating pairs of 20 s untraced runs of one workload between two
# revisions, each exported by git archive (default: the parent commit
# against HEAD); prints medians, quartiles and the lower-in count per metric.
# REV_B=WORKTREE (or REV_A) takes the working tree's uncommitted changes to
# tracked and staged files, through `git stash create`, or HEAD when it is
# clean: `make bench-pairs REV_A=HEAD REV_B=WORKTREE` times them against HEAD.
REV_A ?= HEAD~1
REV_B ?= HEAD
WORKLOAD ?= whitehead-2adic
PAIRS ?= 10

bench-pairs:
	$(PYTHON) scripts/bench_pairs.py $(REV_A) $(REV_B) --workload $(WORKLOAD) --pairs $(PAIRS)

regen-expected:
	$(PYTHON) scripts/reproduce_paper.py > expected/reproduce_paper.txt

# Prints the stdout grid's sha256 digest per command family, to recompute
# EXPECTED in tests/test_stdout_grid.py after a deliberate output change;
# writes no file.
digests:
	PYTHONPATH=src $(PYTHON) tests/test_stdout_grid.py

# Prints the line count of each src/padicres module and their total, the
# number ROADMAP.md's line-count goals are read from, then the code-line
# count, which leaves out blank, comment and docstring lines.
src-lines:
	@wc -l src/padicres/*.py
	@$(PYTHON) scripts/code_lines.py src/padicres/*.py
