//go:build escapecheck

package heavyhitters

// Go compiles a generic body in the package that instantiates it, so
// compiling this package alone emits no code — and no escape-analysis
// diagnostics — for the generic summary stack. scripts/escapecheck.sh
// builds with this tag to instantiate the stack for the two key types
// the wire format, the tools and hhserverd use.
var (
	_ = New[uint64]
	_ = New[string]
)
