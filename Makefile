PYTHON ?= python3

.PHONY: test acceptance reproduce-paper regen-expected check

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
# tier-1's testpaths; its tracer rebinds padicres names, so a rename in src/
# shows up only there).
check: test reproduce-paper
	$(PYTHON) -m pytest -q perfbench

regen-expected:
	$(PYTHON) scripts/reproduce_paper.py > expected/reproduce_paper.txt
