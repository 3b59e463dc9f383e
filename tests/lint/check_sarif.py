#!/usr/bin/env python3
"""Structural validation of dc_lint's SARIF 2.1.0 output.

Usage: check_sarif.py <dc_lint-binary> <source-root>

Runs the linter twice: once over the full tree (expected clean, an empty
`results` array must still be well-formed) and once over a known-violation
fixture (the `results` shape is checked field by field). This is a schema
spot-check, not a full JSON-Schema validation — it pins exactly the parts
GitHub code scanning consumes.
"""
import json
import subprocess
import sys

EXPECTED_RULES = [
    "dc-r1", "dc-r2", "dc-r3", "dc-r4", "dc-r5", "dc-r7", "dc-r8", "dc-r9",
    "dc-r10", "dc-r11", "dc-r12", "dc-r13", "dc-r14", "dc-waiver",
]


def fail(message):
    print("check_sarif: FAIL: " + message, file=sys.stderr)
    sys.exit(1)


def run_sarif(binary, root, paths, expected_rc):
    proc = subprocess.run([binary, "--sarif"] + paths,
                          cwd=root, capture_output=True, text=True)
    if proc.returncode != expected_rc:
        fail("exit code %d (want %d) for %s:\n%s"
             % (proc.returncode, expected_rc, paths, proc.stderr))
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as err:
        fail("output is not valid JSON (%s):\n%s" % (err, proc.stdout[:2000]))


def check_log_shape(log):
    if log.get("$schema") != "https://json.schemastore.org/sarif-2.1.0.json":
        fail("wrong or missing $schema: %r" % log.get("$schema"))
    if log.get("version") != "2.1.0":
        fail("wrong SARIF version: %r" % log.get("version"))
    runs = log.get("runs")
    if not isinstance(runs, list) or len(runs) != 1:
        fail("expected exactly one run, got %r" % runs)
    run = runs[0]
    driver = run.get("tool", {}).get("driver", {})
    if driver.get("name") != "dc-lint":
        fail("tool.driver.name: %r" % driver.get("name"))
    if not driver.get("version"):
        fail("tool.driver.version is missing")
    rules = driver.get("rules")
    if [r.get("id") for r in rules] != EXPECTED_RULES:
        fail("rule descriptors drifted: %r" % [r.get("id") for r in rules])
    for rule in rules:
        if not rule.get("shortDescription", {}).get("text"):
            fail("rule %s has no shortDescription" % rule.get("id"))
        level = rule.get("defaultConfiguration", {}).get("level")
        if level not in ("error", "warning"):
            fail("rule %s has bad level %r" % (rule.get("id"), level))
    if run.get("columnKind") != "utf16CodeUnits":
        fail("columnKind: %r" % run.get("columnKind"))
    if not isinstance(run.get("results"), list):
        fail("results is not an array")
    return run["results"], [r["id"] for r in rules]


def check_result_shape(result, rule_ids):
    rule_id = result.get("ruleId")
    if rule_id not in rule_ids:
        fail("result has unknown ruleId %r" % rule_id)
    if result.get("ruleIndex") != rule_ids.index(rule_id):
        fail("ruleIndex %r does not match descriptor order for %s"
             % (result.get("ruleIndex"), rule_id))
    if result.get("level") not in ("error", "warning"):
        fail("result level: %r" % result.get("level"))
    if not result.get("message", {}).get("text"):
        fail("result has no message text")
    locations = result.get("locations")
    if not isinstance(locations, list) or len(locations) != 1:
        fail("expected one location, got %r" % locations)
    physical = locations[0].get("physicalLocation", {})
    uri = physical.get("artifactLocation", {}).get("uri")
    if not uri or uri.startswith("/"):
        fail("artifact uri must be relative and non-empty: %r" % uri)
    start_line = physical.get("region", {}).get("startLine")
    if not isinstance(start_line, int) or start_line < 1:
        fail("region.startLine: %r" % start_line)


def main():
    if len(sys.argv) != 3:
        fail("usage: check_sarif.py <dc_lint> <source-root>")
    binary, root = sys.argv[1], sys.argv[2]

    # The tree is clean: the log must be well-formed with zero results.
    tree = run_sarif(binary, root, ["src", "tools", "bench"], expected_rc=0)
    tree_results, _ = check_log_shape(tree)
    if tree_results:
        fail("tree run produced unexpected results: %r" % tree_results[:3])

    # A known-violation fixture: every result must carry the full shape.
    fixture = "tests/lint/fixtures/r1_wall_clock.cpp"
    dirty = run_sarif(binary, root, [fixture], expected_rc=1)
    dirty_results, rule_ids = check_log_shape(dirty)
    if len(dirty_results) != 5:
        fail("expected 5 results from %s, got %d" % (fixture, len(dirty_results)))
    for result in dirty_results:
        check_result_shape(result, rule_ids)

    print("check_sarif: OK (%d descriptors, %d fixture results)"
          % (len(rule_ids), len(dirty_results)))


if __name__ == "__main__":
    main()
