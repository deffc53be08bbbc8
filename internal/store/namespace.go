package store

// DefaultProject is the tenant every request without a project field maps
// to. Its store view is the bare underlying store — no prefix — so a store
// directory written by a pre-tenant server warm-loads into the default
// tenant unchanged, and a single-tenant deployment's on-disk layout is
// byte-identical to the historical one.
const DefaultProject = "default"

// Namespaced returns a view of st whose records live under a per-project
// namespace: every Get/Put rewrites the namespace to "<project>/<ns>", so
// two projects sharing one physical store (and one log file) can never
// collide, and an evicted project's artifacts are found again
// on re-admission by re-deriving the same prefix.
//
// The empty project and DefaultProject return st itself (see
// DefaultProject). Project names must already be validated by the caller
// (the tenant layer accepts only [A-Za-z0-9._-], which cannot contain the
// '/' separator, so distinct projects always produce distinct prefixes).
//
// The view shares the underlying store's counters and lifetime: Stat and Compact pass through, and Close is a no-op — the
// owner of the underlying store closes it once, not once per project.
func Namespaced(st Store, project string) Store {
	if st == nil || project == "" || project == DefaultProject {
		return st
	}
	return &nsStore{st: st, prefix: project + "/"}
}

type nsStore struct {
	st     Store
	prefix string
}

func (n *nsStore) Get(ns, key string) ([]byte, bool, error) {
	return n.st.Get(n.prefix+ns, key)
}

func (n *nsStore) Put(ns, key string, val []byte) error {
	return n.st.Put(n.prefix+ns, key, val)
}

func (n *nsStore) Stat() Stats    { return n.st.Stat() }
func (n *nsStore) Compact() error { return n.st.Compact() }

// Close is a no-op: the namespaced view does not own the underlying store.
func (n *nsStore) Close() error { return nil }
