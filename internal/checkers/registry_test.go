package checkers

import (
	"fmt"
	"testing"

	"repro/internal/seg"
)

func TestRegistryAll(t *testing.T) {
	all := All()
	if len(all) != len(Names()) {
		t.Fatalf("All returned %d specs, Names %d", len(all), len(Names()))
	}
	seen := map[string]bool{}
	for i, sp := range all {
		if sp.Name != Names()[i] {
			t.Errorf("All()[%d].Name = %q, Names()[%d] = %q", i, sp.Name, i, Names()[i])
		}
		if seen[sp.Name] {
			t.Errorf("duplicate checker name %q", sp.Name)
		}
		seen[sp.Name] = true
		if sp.Kind == KindSourceSink && sp.LocalSources == nil {
			t.Errorf("%s: source–sink checker without LocalSources", sp.Name)
		}
	}
	if !seen["memory-leak"] {
		t.Error("memory-leak missing from registry")
	}
}

func TestRegistryByName(t *testing.T) {
	for _, name := range Names() {
		sp, ok := ByName(name)
		if !ok || sp.Name != name {
			t.Errorf("ByName(%q) = %v, %v", name, sp, ok)
		}
	}
	// CLI alias.
	sp, ok := ByName("uaf")
	if !ok || sp.Name != "use-after-free" {
		t.Errorf("ByName(uaf) = %v, %v", sp, ok)
	}
	if _, ok := ByName("no-such-checker"); ok {
		t.Error("ByName accepted an unknown name")
	}
	if lk, ok := ByName("memory-leak"); !ok || lk.Kind != KindUnreleased {
		t.Errorf("memory-leak spec = %+v, %v; want KindUnreleased", lk, ok)
	}
	// Fresh specs each call: mutating one must not leak into the next.
	a, _ := ByName("path-traversal")
	a.SanitizerCalls = map[string]bool{"x": true}
	b, _ := ByName("path-traversal")
	if b.SanitizerCalls != nil {
		t.Error("ByName returned a shared spec instance")
	}
}

// TestSharesWalk pins the grouping rule over the registry and a few variants:
// use-after-free and double-free share a walk and nothing else does; sharing
// agrees with WalkIdentity, which detection keeps task lists under across
// requests, and two different specs that share no walk differ in it as in
// Identity — the variants WithSanitizers makes of a registry spec included;
// and a spec that claims leaf sinks accepts no call or return argument,
// whatever the callee — the one thing the rule takes on trust.
func TestSharesWalk(t *testing.T) {
	specs := append(All(), All()...) // every spec beside a fresh copy of itself
	uaf, _ := ByName("use-after-free")
	pt, _ := ByName("path-traversal")
	specs = append(specs, uaf.WithSanitizers("checked"), pt.WithSanitizers("checked"))
	same := func(a, b *Spec) bool { return a.Name == b.Name && len(a.SanitizerCalls) == len(b.SanitizerCalls) }
	// walk names the class a spec is expected in; "" shares with no one.
	walk := func(sp *Spec) string {
		switch {
		case sp.Name == "use-after-free" || sp.Name == "double-free":
			return fmt.Sprint("free", len(sp.SanitizerCalls))
		case sp.Name == "null-deref":
			return "null"
		}
		return ""
	}
	for i, a := range specs {
		for j, b := range specs {
			if got, want := a.SharesWalk(b), walk(a) != "" && walk(a) == walk(b); got != want {
				t.Errorf("%s (#%d) shares a walk with %s (#%d): %t, want %t", a.Name, i, b.Name, j, got, want)
			}
			if a.SharesWalk(b) && a.WalkIdentity() != b.WalkIdentity() {
				t.Errorf("%s and %s share a walk under different identities", a.Name, b.Name)
			}
			if a.WalkIdentity() == b.WalkIdentity() && a.leafSinks() != b.leafSinks() {
				t.Errorf("%s and %s: one walk identity, different sink shapes", a.Name, b.Name)
			}
			if !a.SharesWalk(b) && !same(a, b) && a.WalkIdentity() == b.WalkIdentity() {
				t.Errorf("%s (#%d) and %s (#%d) share no walk but one walk identity", a.Name, i, b.Name, j)
			}
			if (a.Identity() == b.Identity()) != same(a, b) {
				t.Errorf("%s (#%d) and %s (#%d): identities equal %t, specs equal %t", a.Name, i, b.Name, j, a.Identity() == b.Identity(), same(a, b))
			}
		}
	}
	gs := buildGraphs(t, `
int *id(int *x) { return x; }
void f() {
	int *p = malloc();
	free(p);
	int *q = id(p);
	open_file(q);
	send_data(q);
	free(q);
}`)
	for _, sp := range specs {
		if !sp.leafSinks() {
			continue
		}
		for _, g := range gs {
			for _, role := range []seg.UseRole{seg.RoleCallArg, seg.RoleRetArg} {
				for _, n := range uses(g, role) {
					if sp.IsSink(g, n, -1) {
						t.Errorf("%s declares no SinkCalls but sinks at %s", sp.Name, g.NodeString(n))
					}
				}
			}
		}
	}
}

// TestIdentityRenderedOnce: a registry spec carries its identities rendered,
// so asking for them allocates nothing, and they are what rendering gives.
func TestIdentityRenderedOnce(t *testing.T) {
	for _, sp := range All() {
		if n := testing.AllocsPerRun(10, func() { _, _ = sp.Identity(), sp.WalkIdentity() }); n != 0 {
			t.Errorf("%s: %.0f allocations per Identity and WalkIdentity", sp.Name, n)
		}
		if sp.Identity() != sp.render(true) || sp.WalkIdentity() != sp.render(!sp.leafSinks()) {
			t.Errorf("%s: the rendered identities are not the spec's", sp.Name)
		}
	}
}
