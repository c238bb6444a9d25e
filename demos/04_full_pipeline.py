"""The whole pipeline from one config file.

Runs every task of the sample project (classification, coverage gaps,
duplicates, contradictions) against the mock backend, then runs it a
second time to show the delta logic reusing the first run's outputs
without a single backend call, and the unchanged report set kept as it is.

Equivalent to:

    safereq run --config sample_project/params.json --version-tag DEMO
"""

from pathlib import Path

from safereq import MockBackend, run_all

REPO = Path(__file__).resolve().parent.parent
PROJECT = REPO / "sample_project"


def show(report):
    for result in report.results:
        line = f"  {result.name}: {result.status} ({result.detail})"
        if result.backend_calls:
            line += f" [{result.backend_calls} backend calls]"
        print(line)
    if report.report_set is not None:
        unchanged = " (unchanged)" if report.report_set.reused else ""
        print(f"  reports: {report.report_set.summary_path.parent}{unchanged}")
    print("  backend calls in total:", sum(r.backend_calls for r in report.results))


def main():
    config, fixtures = PROJECT / "params.json", PROJECT / "fixtures"
    print("first run (everything executes):")
    show(run_all(config, backend=MockBackend(fixtures), version_tag="DEMO"))

    print("\nsecond run (delta reuses the raw outputs):")
    show(run_all(config, backend=MockBackend(fixtures), version_tag="DEMO"))

    summary = PROJECT / "B_Requirements" / "results" / "reports" / "summary_DEMO.md"
    print("\nsummary report:")
    print(summary.read_text(encoding="utf-8"))


if __name__ == "__main__":
    main()
