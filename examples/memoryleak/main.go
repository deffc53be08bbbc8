// Memory-leak hunting: the "absence of a flow" property — an allocation
// must reach a free on every feasible path. This example shows the three
// verdicts the checker distinguishes: never freed, conditionally freed
// (with a leak-triggering witness), and clean-or-escaping.
//
// Run with: go run ./examples/memoryleak
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/minic"
)

const program = `
// Never freed: plainly leaks.
void forgot() {
	int *p = malloc();
	*p = 1;
}

// Freed only on the error path: leaks when ok succeeds.
void half_cleanup(bool failed) {
	int *buf = malloc();
	*buf = 0;
	if (failed) {
		free(buf);
	}
}

// Freed on both paths: clean.
void full_cleanup(bool failed) {
	int *buf = malloc();
	if (failed) { free(buf); } else { consume(*buf); free(buf); }
}

// The free conditions are vacuous (x>5 && x<3 never holds): effectively
// never freed, and only the SMT stage can tell.
void vacuous(int x) {
	int *p = malloc();
	if (x > 5) {
		if (x < 3) { free(p); }
	}
}

// Ownership transfer: returned allocations are the caller's problem.
int *factory() {
	int *p = malloc();
	*p = 42;
	return p;
}

// Ownership transfer: published into a global registry.
int *registry_g;
void publish() {
	int *p = malloc();
	registry_g = p;
}
`

func main() {
	analysis, err := core.BuildFromSource(
		[]minic.NamedSource{{Name: "leaks.mc", Src: program}},
		core.BuildOptions{},
	)
	if err != nil {
		log.Fatal(err)
	}
	spec := checkers.MemoryLeak()
	reports, stats := analysis.Check(spec, detect.Options{})
	fmt.Printf("%s; %d leaks reported\n\n", detect.CheckerStats{Checker: spec.Name, Stats: stats}, len(reports))
	for _, r := range reports {
		fmt.Println("  ", r)
		if len(r.Witness) > 0 {
			fmt.Printf("      leaks when: %s\n", strings.Join(r.Witness, ", "))
		}
	}
	fmt.Println("\nexpected: forgot (never-freed), half_cleanup (conditional), vacuous (never-freed in effect);")
	fmt.Println("full_cleanup is clean; factory and publish escape.")
}
