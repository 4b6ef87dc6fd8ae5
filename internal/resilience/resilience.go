// Package resilience is the compiler's fail-soft layer. A production
// compiler cannot let one pathological loop hang or crash a whole
// compile or a whole evaluation suite, so every risky pipeline unit
// (per-loop analysis, the branch-and-bound partition search, a
// compile+simulate job) runs under a phase budget and a panic guard:
//
//   - Budget combines a wall-clock deadline (via context.Context) with a
//     deterministic work-unit allowance. Work charges the unit counter;
//     the deadline is polled cheaply every few hundred charges. When
//     either is exhausted, the unit stops and returns its best answer so
//     far instead of running unbounded.
//   - Guard converts a panic into a *PanicError carrying the stack, so
//     the caller can demote the affected unit (a loop falls back to
//     serial, a job is marked failed) and keep going.
//   - DegradationEvent / Recorder give every fail-soft decision a typed,
//     inspectable record.
//
// The package also hosts a pluggable fault-injection registry: pipeline
// code declares named inject points (Register / InjectPoint) that tests
// and CLIs can arm (Arm / ArmSpec) to force panics, delays, errors, or
// budget exhaustion at exactly that point. Disarmed points cost one
// atomic load.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Reason classifies why a pipeline unit degraded.
type Reason int

// Degradation reasons.
const (
	ReasonNone Reason = iota
	// ReasonPanic: the unit panicked and was demoted.
	ReasonPanic
	// ReasonTimeout: the unit's wall-clock deadline expired.
	ReasonTimeout
	// ReasonBudget: the unit's work-unit budget ran out.
	ReasonBudget
	// ReasonCanceled: the surrounding context was canceled.
	ReasonCanceled
	// ReasonError: the unit failed with an ordinary error and a fallback
	// was used.
	ReasonError
)

func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonPanic:
		return "panic"
	case ReasonTimeout:
		return "timeout"
	case ReasonBudget:
		return "budget"
	case ReasonCanceled:
		return "canceled"
	case ReasonError:
		return "error"
	}
	return "?"
}

// ParseReason maps a Reason's String form back to the Reason.
func ParseReason(s string) (Reason, bool) {
	for r := ReasonNone; r <= ReasonError; r++ {
		if r.String() == s {
			return r, true
		}
	}
	return ReasonNone, false
}

// ErrBudget is returned by Budget.Spend when the work-unit allowance is
// exhausted.
var ErrBudget = errors.New("resilience: work-unit budget exhausted")

// PanicError is a recovered panic, preserved as an error with the stack
// at the point of the panic.
type PanicError struct {
	Value any
	Stack string
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// ReasonFor maps an error to the degradation reason it represents.
func ReasonFor(err error) Reason {
	switch {
	case err == nil:
		return ReasonNone
	case errors.Is(err, ErrBudget):
		return ReasonBudget
	case errors.Is(err, context.DeadlineExceeded):
		return ReasonTimeout
	case errors.Is(err, context.Canceled):
		return ReasonCanceled
	default:
		var pe *PanicError
		if errors.As(err, &pe) {
			return ReasonPanic
		}
		return ReasonError
	}
}

// Guard runs fn, converting a panic into a *PanicError that carries the
// stack at the panic site. Ordinary errors pass through unchanged.
func Guard(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: string(debug.Stack())}
		}
	}()
	return fn()
}

// DegradationEvent records one fail-soft decision: which pipeline phase
// degraded, for which unit, and why.
type DegradationEvent struct {
	// Phase is the pipeline point, e.g. "pass1.loop", "partition.search",
	// "pass2.transform", "job".
	Phase string
	// Unit names the affected unit: a "func/loopN" candidate, a
	// "bench/level" job.
	Unit string
	// Reason is the degradation class.
	Reason Reason
	// Err is the underlying error (a *PanicError for panics).
	Err error
	// Stack is the panic stack, when Reason is ReasonPanic.
	Stack string
}

func (ev DegradationEvent) String() string {
	s := fmt.Sprintf("%s %s: %s", ev.Phase, ev.Unit, ev.Reason)
	if ev.Err != nil {
		s += ": " + ev.Err.Error()
	}
	return s
}

// Event builds a DegradationEvent from an error, extracting the panic
// stack when there is one.
func Event(phase, unit string, err error) DegradationEvent {
	ev := DegradationEvent{Phase: phase, Unit: unit, Reason: ReasonFor(err), Err: err}
	var pe *PanicError
	if errors.As(err, &pe) {
		ev.Stack = pe.Stack
	}
	return ev
}

// Recorder is a concurrency-safe collector of degradation events. The
// nil *Recorder discards events, so callers record unconditionally.
type Recorder struct {
	mu     sync.Mutex
	events []DegradationEvent
}

// Record appends one event. Nil-safe.
func (r *Recorder) Record(ev DegradationEvent) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, ev)
}

// Events returns a copy of the recorded events in record order.
func (r *Recorder) Events() []DegradationEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]DegradationEvent(nil), r.events...)
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Count returns the number of events with the given reason.
func (r *Recorder) Count(reason Reason) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, ev := range r.events {
		if ev.Reason == reason {
			n++
		}
	}
	return n
}

// Budget is a phase budget: a deterministic work-unit allowance plus the
// wall-clock deadline and cancellation of a context. The work-unit side
// is exact and reproducible (the same inputs always exhaust at the same
// charge); the deadline is polled each time the unit count crosses a
// multiple of pollEvery, so hot loops pay one atomic add per charge.
// Unlimited budgets count down too; only limited ones fail below zero.
//
// Budgets are safe for concurrent use: the counter is an atomic and the
// exhaustion error is published once with a compare-and-swap, so several
// workers can charge one allowance. Note that while concurrent charging
// is race-free, which worker observes the exhaustion first depends on
// scheduling; workers that need deterministic exhaustion points should
// pre-split the allowance into per-worker shares with Split instead.
//
// A nil *Budget is the unlimited budget: Spend always succeeds.
type Budget struct {
	ctx       context.Context
	unlimited bool
	remaining atomic.Int64
	exhausted atomic.Pointer[error] // sticky first exhaustion error
}

// pollEvery is how many work units pass between deadline polls. It is a
// power of two, so clearing the low bits of the unit count finds the
// multiple of pollEvery at or below it.
const pollEvery = 256

// NewBudget returns a budget of the given work units bound to ctx. A
// units value <= 0 means no unit limit (deadline only); a nil ctx means
// no deadline (units only).
func NewBudget(ctx context.Context, units int64) *Budget {
	if ctx == nil {
		ctx = context.Background()
	}
	b := &Budget{ctx: ctx, unlimited: units <= 0}
	b.remaining.Store(units)
	return b
}

// newExactBudget is NewBudget without the units<=0-means-unlimited rule:
// a zero-unit budget that fails its first charge, for zero shares of a
// Split.
func newExactBudget(ctx context.Context, units int64) *Budget {
	if ctx == nil {
		ctx = context.Background()
	}
	b := &Budget{ctx: ctx}
	b.remaining.Store(units)
	return b
}

// fail publishes the first exhaustion error; later calls keep the first.
func (b *Budget) fail(err error) error {
	b.exhausted.CompareAndSwap(nil, &err)
	return *b.exhausted.Load()
}

// Spend charges n work units. It returns nil while the budget holds,
// ErrBudget once the unit allowance is exhausted, and the context error
// once the deadline has expired or the context was canceled. After the
// first failure every later Spend returns the same error.
func (b *Budget) Spend(n int64) error {
	if b == nil {
		return nil
	}
	if e := b.exhausted.Load(); e != nil {
		return *e
	}
	r := b.remaining.Add(-n)
	if r < 0 && !b.unlimited {
		return b.fail(ErrBudget)
	}
	if (r+n)&^(pollEvery-1) != r&^(pollEvery-1) {
		if err := b.ctx.Err(); err != nil {
			return b.fail(err)
		}
	}
	return nil
}

// Err returns the sticky exhaustion error, or nil while the budget
// holds. Unlike Spend it always polls the context, so callers can use it
// as a final check.
func (b *Budget) Err() error {
	if b == nil {
		return nil
	}
	if e := b.exhausted.Load(); e != nil {
		return *e
	}
	if err := b.ctx.Err(); err != nil {
		return b.fail(err)
	}
	return nil
}

// Exhaust forces the budget into the exhausted state (used by the
// FaultExhaust injection).
func (b *Budget) Exhaust() {
	if b != nil {
		b.fail(ErrBudget)
	}
}

// Remaining returns the work units left (meaningless when unlimited).
func (b *Budget) Remaining() int64 {
	if b == nil || b.unlimited {
		return -1
	}
	return b.remaining.Load()
}

// Split carves the remaining unit allowance into k child budgets with
// near-equal shares: every child gets remaining/k units and the first
// remaining%k children get one extra, so the shares depend only on the
// allowance and k — not on scheduling — and a fixed (work, k) always
// degrades the same children at the same charge no matter how many
// goroutines drain them. The parent is drained (its units drop to zero);
// children share the parent's context deadline. Splitting an unlimited
// budget yields unlimited children, and splitting a nil budget yields
// nil (unlimited) children.
func (b *Budget) Split(k int) []*Budget {
	if k <= 0 {
		return nil
	}
	kids := make([]*Budget, k)
	if b == nil {
		return kids
	}
	if b.unlimited {
		for i := range kids {
			kids[i] = NewBudget(b.ctx, 0)
		}
		return kids
	}
	rem := b.remaining.Swap(0)
	if rem < 0 {
		rem = 0
	}
	share, extra := rem/int64(k), rem%int64(k)
	for i := range kids {
		u := share
		if int64(i) < extra {
			u++
		}
		kids[i] = newExactBudget(b.ctx, u)
	}
	return kids
}

type budgetKey struct{}

// WithBudget attaches b to ctx so inject points (FaultExhaust) can reach
// the active budget.
func WithBudget(ctx context.Context, b *Budget) context.Context {
	return context.WithValue(ctx, budgetKey{}, b)
}

// BudgetFrom extracts the budget attached by WithBudget, or nil.
func BudgetFrom(ctx context.Context) *Budget {
	if ctx == nil {
		return nil
	}
	b, _ := ctx.Value(budgetKey{}).(*Budget)
	return b
}

// ---- Fault injection ----

// FaultKind is the behavior of an armed inject point.
type FaultKind int

// Fault kinds.
const (
	// FaultPanic panics with an *InjectedPanic value.
	FaultPanic FaultKind = iota
	// FaultDelay sleeps for Fault.Delay (or until the context is done).
	FaultDelay
	// FaultError returns Fault.Err (ErrInjected when nil).
	FaultError
	// FaultExhaust exhausts the Budget attached to the context, if any.
	FaultExhaust
	// FaultShortWrite makes a wrapped writer (Point.Writer) write only
	// half of each buffer before failing with io.ErrShortWrite. Fired
	// directly (Point.Fire), it behaves like FaultError with
	// io.ErrShortWrite, so the same armed point covers both shapes.
	FaultShortWrite
)

// Fault is the armed behavior of one inject point.
type Fault struct {
	Kind  FaultKind
	Delay time.Duration
	Err   error
}

// InjectedPanic is the value a FaultPanic panics with.
type InjectedPanic struct{ Point string }

func (p *InjectedPanic) String() string { return "injected panic at " + p.Point }

// ErrInjected is the default error of a FaultError injection.
var ErrInjected = errors.New("resilience: injected fault")

// Point is a named fault-injection site. Firing a disarmed point costs
// one atomic load, so points sit on hot paths.
type Point struct {
	name  string
	fault atomic.Pointer[Fault]
}

// Name returns the point's registered name.
func (p *Point) Name() string { return p.name }

// Fire triggers the point's armed fault, if any: it panics, sleeps,
// exhausts the context's budget, or returns an error according to the
// fault kind. Disarmed (the common case) it returns nil immediately.
func (p *Point) Fire(ctx context.Context) error {
	f := p.fault.Load()
	if f == nil {
		return nil
	}
	switch f.Kind {
	case FaultPanic:
		panic(&InjectedPanic{Point: p.name})
	case FaultDelay:
		if ctx == nil {
			time.Sleep(f.Delay)
			return nil
		}
		t := time.NewTimer(f.Delay)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	case FaultError:
		if f.Err != nil {
			return f.Err
		}
		return fmt.Errorf("%w at %s", ErrInjected, p.name)
	case FaultExhaust:
		BudgetFrom(ctx).Exhaust()
		return nil
	case FaultShortWrite:
		return fmt.Errorf("%w at %s", io.ErrShortWrite, p.name)
	}
	return nil
}

// Writer wraps w with the point's armed fault, so durability code can
// thread one failing-writer shim through every disk write and tests can
// force I/O failures without real disk faults. Disarmed (the common
// case) each Write costs one atomic load. Armed behavior per kind:
// FaultError fails the write without writing (an ENOSPC-style full
// failure), FaultShortWrite writes half the buffer and then fails with
// io.ErrShortWrite (a torn frame on disk), FaultDelay sleeps before
// writing, and FaultPanic panics.
func (p *Point) Writer(w io.Writer) io.Writer {
	return &faultWriter{p: p, w: w}
}

type faultWriter struct {
	p *Point
	w io.Writer
}

func (fw *faultWriter) Write(b []byte) (int, error) {
	f := fw.p.fault.Load()
	if f == nil {
		return fw.w.Write(b)
	}
	switch f.Kind {
	case FaultError:
		if f.Err != nil {
			return 0, f.Err
		}
		return 0, fmt.Errorf("%w at %s", ErrInjected, fw.p.name)
	case FaultShortWrite:
		n, err := fw.w.Write(b[:len(b)/2])
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("%w at %s", io.ErrShortWrite, fw.p.name)
	case FaultDelay:
		time.Sleep(f.Delay)
		return fw.w.Write(b)
	case FaultPanic:
		panic(&InjectedPanic{Point: fw.p.name})
	}
	return fw.w.Write(b)
}

var registry = struct {
	mu     sync.Mutex
	points map[string]*Point
}{points: make(map[string]*Point)}

// Register declares (or looks up) a named inject point. Packages
// register their points in package-level vars so Points() can enumerate
// every site before a run starts.
func Register(name string) *Point {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if p, ok := registry.points[name]; ok {
		return p
	}
	p := &Point{name: name}
	registry.points[name] = p
	return p
}

// InjectPoint fires the named point (registering it on first sight).
// Prefer keeping a *Point from Register on hot paths; InjectPoint does a
// map lookup.
func InjectPoint(name string, ctx context.Context) error {
	return Register(name).Fire(ctx)
}

// Arm attaches a fault to the named point (registering it if needed).
func Arm(name string, f Fault) {
	fault := f
	Register(name).fault.Store(&fault)
}

// Disarm removes the fault from the named point.
func Disarm(name string) {
	registry.mu.Lock()
	p := registry.points[name]
	registry.mu.Unlock()
	if p != nil {
		p.fault.Store(nil)
	}
}

// DisarmAll disarms every registered point.
func DisarmAll() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, p := range registry.points {
		p.fault.Store(nil)
	}
}

// Points returns the sorted names of all registered inject points.
func Points() []string {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	names := make([]string, 0, len(registry.points))
	for n := range registry.points {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Armed returns the sorted names of currently armed points.
func Armed() []string {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	var names []string
	for n, p := range registry.points {
		if p.fault.Load() != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// ArmSpec arms points from a comma-separated CLI spec:
//
//	point=panic | point=delay:200ms | point=error | point=short-write | point=exhaust
//
// Unknown points are registered so tests can arm before the pipeline
// package loads; unknown fault kinds are an error.
func ArmSpec(spec string) error {
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, kind, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return fmt.Errorf("resilience: bad inject spec %q (want point=fault)", part)
		}
		var f Fault
		switch {
		case kind == "panic":
			f = Fault{Kind: FaultPanic}
		case kind == "error":
			f = Fault{Kind: FaultError}
		case kind == "exhaust":
			f = Fault{Kind: FaultExhaust}
		case kind == "short-write":
			f = Fault{Kind: FaultShortWrite}
		case strings.HasPrefix(kind, "delay:"):
			d, err := time.ParseDuration(strings.TrimPrefix(kind, "delay:"))
			if err != nil {
				return fmt.Errorf("resilience: bad delay in inject spec %q: %w", part, err)
			}
			f = Fault{Kind: FaultDelay, Delay: d}
		default:
			return fmt.Errorf("resilience: unknown fault %q in inject spec (want panic|delay:DUR|error|short-write|exhaust)", kind)
		}
		Arm(name, f)
	}
	return nil
}
