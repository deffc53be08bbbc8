// Package checkers defines the source–sink specifications of the bug
// detectors built on the Pinpoint engine (§4.1): use-after-free,
// double-free, and the two taint checkers evaluated in the paper
// (path-traversal and data-transmission vulnerabilities), plus a
// null-dereference checker as an extension.
//
// A checker is purely declarative: it names the SEG vertices that originate
// a dangerous value (sources), the vertices that consume one (sinks), and a
// few policy bits (whether sinks must execute after the source; whether the
// tracked value should be widened backward to its allocation roots so
// aliases of the freed object are covered). The demand-driven engine in
// package detect interprets the spec.
package checkers

import (
	"fmt"
	"maps"
	"reflect"
	"sort"
	"strings"

	"repro/internal/cond"
	"repro/internal/ir"
	"repro/internal/seg"
)

// Source is a dangerous-value origin.
type Source struct {
	// Val is the tracked SSA value's ID.
	Val int32
	// At is the ID of the instruction after which the value is dangerous
	// (the free for UAF; the defining call for taint).
	At int32
	// Cond is the condition under which the source fires (the control
	// dependence of At), in the function-local condition domain.
	Cond *cond.Cond
}

// Kind discriminates how the detection engine interprets a spec.
type Kind uint8

const (
	// KindSourceSink is the standard must-not-flow property: a value from
	// a source vertex must not reach a sink vertex. The zero value, so
	// plain source–sink specs need not set it.
	KindSourceSink Kind = iota
	// KindUnreleased is the dual "absence of a flow" property (memory
	// leaks): an allocation must reach a release on every feasible path.
	// Specs of this kind carry no LocalSources/IsSink; the engine runs
	// its unreleased-resource checker instead.
	//
	// The registry dispatches on Kind rather than attaching a Run closure
	// to each entry: a closure would need the detect package's Program
	// and Options types, and detect already imports checkers.
	KindUnreleased
)

// Spec is a checker definition.
type Spec struct {
	// Name identifies the checker in reports.
	Name string
	// Kind selects the engine interpretation (source–sink by default).
	Kind Kind
	// LocalSources extracts the sources of one function's SEG.
	LocalSources func(g *seg.Graph) []Source
	// IsSink reports whether use vertex n consumes the dangerous value.
	// The source's originating instruction is provided so checkers can
	// exclude it (a free is not its own sink). A spec that sinks at call
	// arguments names the callees in SinkCalls (see SharesWalk).
	IsSink func(g *seg.Graph, n int32, sourceAt int32) bool
	// OrderingRequired demands the sink execute after the source (UAF
	// semantics); taint flows are ordered by data dependence already.
	OrderingRequired bool
	// WidenToRoots walks backward from the source value to its
	// allocation roots before searching forward, so sibling aliases of
	// the freed object are tracked too.
	WidenToRoots bool
	// SourceCalls maps external callee names to the fact that their
	// return value is a source (taint checkers).
	SourceCalls map[string]bool
	// SinkCalls maps external callee names to the argument positions
	// that are sinks (-1 = every argument).
	SinkCalls map[string]int
	// PropagateCalls are external callees whose return value carries the
	// taint of their arguments (str_copy-style transfer functions).
	PropagateCalls map[string]bool
	// SanitizerCalls are external predicates that, when guarding a sink,
	// neutralize the flow: a candidate whose sink is control-dependent on
	// a sanitizer call over the tainted value is suppressed. The paper's
	// checkers deliberately leave this empty (§4.1, §5.3) and count the
	// resulting reports as false positives; WithSanitizers opts in.
	SanitizerCalls map[string]bool

	// identity and walkIdentity are Identity and WalkIdentity as the
	// registry rendered them for the entry that made the spec; empty for a
	// spec made otherwise, whose identities are rendered on each call.
	identity, walkIdentity string
}

// WithSanitizers returns a copy of the spec with sanitizer modeling
// enabled — the extension the paper defers. The FP rate of the taint
// checkers drops accordingly (see the sanitizer test and bench).
func (s *Spec) WithSanitizers(names ...string) *Spec {
	out := *s
	out.identity, out.walkIdentity = "", "" // they name the sanitizers
	out.SanitizerCalls = make(map[string]bool, len(names))
	for _, n := range names {
		out.SanitizerCalls[n] = true
	}
	return &out
}

// Identity renders everything that decides what the spec makes the engine
// do: the declarative fields and the code of the two extraction functions
// (their captured name tables are the SourceCalls/SinkCalls fields). Specs
// are built fresh per request, so detection results memoized across requests
// are keyed by this string rather than by the *Spec.
func (s *Spec) Identity() string {
	if s.identity != "" {
		return s.identity
	}
	return s.render(true)
}

// WalkIdentity renders what SharesWalk compares — Identity without the name
// and the sinks — so that task lists kept across requests are found again by
// whichever members a later request groups. A spec that shares its walk with
// no one keeps its full identity.
func (s *Spec) WalkIdentity() string {
	if s.walkIdentity != "" {
		return s.walkIdentity
	}
	return s.render(!s.leafSinks())
}

func (s *Spec) render(sinks bool) string {
	var b strings.Builder
	if sinks {
		fmt.Fprintf(&b, "%s|%x|", s.Name, funcPC(s.IsSink))
	}
	fmt.Fprintf(&b, "%d|%t|%t|%x", s.Kind, s.OrderingRequired, s.WidenToRoots, funcPC(s.LocalSources))
	names := func(tag string, m map[string]bool) {
		keys := make([]string, 0, len(m))
		for k, on := range m {
			if on {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "|%s=%s", tag, strings.Join(keys, ","))
	}
	names("src", s.SourceCalls)
	if sinks {
		list := make([]string, 0, len(s.SinkCalls))
		for k, pos := range s.SinkCalls {
			list = append(list, fmt.Sprintf("%s:%d", k, pos))
		}
		sort.Strings(list)
		fmt.Fprintf(&b, "|sink=%s", strings.Join(list, ","))
	}
	names("prop", s.PropagateCalls)
	names("san", s.SanitizerCalls)
	return b.String()
}

// SharesWalk reports whether the engine's search from a source visits the
// same vertices in the same order for s and for o, so that one walk can serve
// both: the same sources, ordering, widening, transfer functions and
// sanitizers, and sinks that never stop the walk where the other spec would
// go on (leafSinks). It compares field by field and by function pointer and
// allocates nothing: the one-shot paths group specs on every call.
func (s *Spec) SharesWalk(o *Spec) bool {
	return s.leafSinks() && o.leafSinks() &&
		funcPC(s.LocalSources) == funcPC(o.LocalSources) &&
		s.OrderingRequired == o.OrderingRequired && s.WidenToRoots == o.WidenToRoots &&
		maps.Equal(s.SourceCalls, o.SourceCalls) &&
		maps.Equal(s.PropagateCalls, o.PropagateCalls) &&
		maps.Equal(s.SanitizerCalls, o.SanitizerCalls)
}

// leafSinks reports that no sink of the spec is a call or return argument —
// the two roles the search continues through when the vertex is not a sink.
// SinkCalls declares every call-argument sink a spec has, and no spec sinks
// at a return.
func (s *Spec) leafSinks() bool { return s.Kind == KindSourceSink && len(s.SinkCalls) == 0 }

// funcPC is the code pointer of a function value: equal for two closures of
// one function literal, whose captured tables the Spec carries as fields.
func funcPC(fn any) uintptr { return reflect.ValueOf(fn).Pointer() }

// freeSources extracts free-instruction sources (shared by UAF and
// double-free).
func freeSources(g *seg.Graph) []Source {
	var out []Source
	for n := int32(0); int(n) < g.NumNodes(); n++ {
		if g.Node(n).Role == seg.RoleFreeArg {
			at := g.Instr(n)
			out = append(out, Source{Val: g.Val(n), At: at, Cond: g.CD(at)})
		}
	}
	return out
}

// UseAfterFree reports dereferences (and re-frees) of freed values; this is
// the checker of the paper's headline experiment (§5.1, Table 1).
func UseAfterFree() *Spec {
	return &Spec{
		Name:         "use-after-free",
		LocalSources: freeSources,
		IsSink: func(g *seg.Graph, n int32, sourceAt int32) bool {
			if in := g.Instr(n); in == sourceAt || g.In(in).Synthetic() {
				return false
			}
			role := g.Node(n).Role
			return role == seg.RoleDerefAddr || role == seg.RoleFreeArg
		},
		OrderingRequired: true,
		WidenToRoots:     true,
	}
}

// DoubleFree restricts the UAF sinks to second frees.
func DoubleFree() *Spec {
	return &Spec{
		Name:         "double-free",
		LocalSources: freeSources,
		IsSink: func(g *seg.Graph, n int32, sourceAt int32) bool {
			return g.Node(n).Role == seg.RoleFreeArg && g.Instr(n) != sourceAt
		},
		OrderingRequired: true,
		WidenToRoots:     true,
	}
}

// taintSources extracts receivers of source calls.
func taintSources(names map[string]bool) func(g *seg.Graph) []Source {
	return func(g *seg.Graph) []Source {
		var out []Source
		for _, in := range g.Order() {
			if !names[g.Callee(in)] {
				continue
			}
			if dsts := g.Dsts(in); len(dsts) > 0 && dsts[0] >= 0 {
				out = append(out, Source{Val: dsts[0], At: in, Cond: g.CD(in)})
			}
		}
		return out
	}
}

// callArgSink builds an IsSink predicate from a callee→argument map.
func callArgSink(sinks map[string]int) func(g *seg.Graph, n int32, sourceAt int32) bool {
	return func(g *seg.Graph, n int32, sourceAt int32) bool {
		nd := g.Node(n)
		if nd.Role != seg.RoleCallArg {
			return false
		}
		pos, ok := sinks[g.Callee(g.Instr(n))]
		if !ok {
			return false
		}
		return pos < 0 || pos == int(nd.ArgIdx)
	}
}

// PathTraversal models CWE-23: user-controlled input reaching a file-path
// operation (§4.1). Sanitizers are deliberately not modeled, matching the
// paper's taint checkers.
func PathTraversal() *Spec {
	sources := map[string]bool{
		"user_input": true, "read_line": true, "fgetc": true, "recv_str": true,
	}
	sinks := map[string]int{
		"open_file": 0, "fopen_path": 0, "remove_file": 0, "exec_path": 0,
	}
	return &Spec{
		Name:         "path-traversal",
		LocalSources: taintSources(sources),
		IsSink:       callArgSink(sinks),
		SourceCalls:  sources,
		SinkCalls:    sinks,
		PropagateCalls: map[string]bool{
			"str_copy": true, "str_cat": true, "to_path": true,
		},
	}
}

// DataTransmission models CWE-402: sensitive data leaking to a network
// transmission sink (§4.1).
func DataTransmission() *Spec {
	sources := map[string]bool{
		"getpass": true, "read_secret": true, "load_key": true,
	}
	sinks := map[string]int{
		"send_data": 0, "sendto_net": 0, "write_socket": 0, "log_remote": 0,
	}
	return &Spec{
		Name:         "data-transmission",
		LocalSources: taintSources(sources),
		IsSink:       callArgSink(sinks),
		SourceCalls:  sources,
		SinkCalls:    sinks,
		PropagateCalls: map[string]bool{
			"str_copy": true, "str_cat": true, "encode_buf": true,
		},
	}
}

// MemoryLeak reports allocations that fail to reach a free on some feasible
// path (Fastcheck/Saber-style, cited in §1 of the paper). It is the one
// non-source–sink checker: the engine dispatches on Kind and runs the
// path-sensitive unreleased-resource analysis of package detect.
func MemoryLeak() *Spec {
	return &Spec{
		Name: "memory-leak",
		Kind: KindUnreleased,
	}
}

// NullDeref reports dereferences of values that may be null — an extension
// checker demonstrating the framework's generality beyond the paper's
// evaluation.
func NullDeref() *Spec {
	return &Spec{
		Name: "null-deref",
		LocalSources: func(g *seg.Graph) []Source {
			var out []Source
			// The null constant is interned per function: one source, at
			// its first use.
			seen := int32(-1)
			for _, in := range g.Order() {
				for _, a := range g.Args(in) {
					if g.Value(a).Kind == ir.VConstNull && a != seen {
						seen = a
						out = append(out, Source{Val: a, At: in, Cond: g.Conds().True()})
					}
				}
			}
			return out
		},
		IsSink: func(g *seg.Graph, n int32, sourceAt int32) bool {
			return g.Node(n).Role == seg.RoleDerefAddr && !g.In(g.Instr(n)).Synthetic()
		},
	}
}
