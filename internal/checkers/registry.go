package checkers

import (
	"slices"
	"sync"
)

// The checker registry: one place that knows every detector, so frontends
// (cmd/pinpoint, benchmarks, examples) select checkers by name instead of
// hard-coding factory maps and special cases.

// registry lists every checker factory with its canonical name and the CLI
// aliases it answers to. Order is the canonical enumeration order of All.
var registry = []struct {
	name    string
	aliases []string
	make    func() *Spec
}{
	{name: "use-after-free", aliases: []string{"uaf"}, make: UseAfterFree},
	{name: "double-free", make: DoubleFree},
	{name: "path-traversal", make: PathTraversal},
	{name: "data-transmission", make: DataTransmission},
	{name: "null-deref", make: NullDeref},
	{name: "memory-leak", make: MemoryLeak},
}

// identities holds, by registry entry, the Identity and WalkIdentity of the
// spec it makes, rendered once: detection asks for them on every call, and a
// thousand tiny programs checked one after the other would render them a
// thousand times.
var identities = sync.OnceValue(func() [][2]string {
	ids := make([][2]string, len(registry))
	for i, e := range registry {
		sp := e.make()
		ids[i] = [2]string{sp.render(true), sp.render(!sp.leafSinks())}
	}
	return ids
})

// spec returns a fresh spec of registry entry i, its identities rendered.
func spec(i int) *Spec {
	sp, id := registry[i].make(), identities()[i]
	sp.identity, sp.walkIdentity = id[0], id[1]
	return sp
}

// All returns a fresh spec for every registered checker, in a fixed order.
func All() []*Spec {
	out := make([]*Spec, len(registry))
	for i := range registry {
		out[i] = spec(i)
	}
	return out
}

// ByName returns a fresh spec for the checker with the given canonical name
// or alias. The second result is false for unknown names.
func ByName(name string) (*Spec, bool) {
	for i, e := range registry {
		if e.name == name || slices.Contains(e.aliases, name) {
			return spec(i), true
		}
	}
	return nil, false
}

// Names returns the canonical checker names in registry order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.name
	}
	return out
}
