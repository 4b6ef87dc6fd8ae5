package machine

// NewTreeEngine returns an Engine whose runs execute on the reference
// tree walker (walker_test.go) instead of the bytecode engine; like any
// Engine it pools its machine state across runs.
func NewTreeEngine() *Engine {
	e := NewEngine()
	e.s.walk = (*sim).exec
	return e
}
