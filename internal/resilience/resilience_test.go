package resilience

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBudgetUnits(t *testing.T) {
	b := NewBudget(nil, 3)
	for i := 0; i < 3; i++ {
		if err := b.Spend(1); err != nil {
			t.Fatalf("spend %d: %v", i, err)
		}
	}
	if err := b.Spend(1); !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	// Sticky: every later Spend fails the same way.
	if err := b.Spend(1); !errors.Is(err, ErrBudget) {
		t.Fatalf("not sticky: %v", err)
	}
	if got := ReasonFor(b.Err()); got != ReasonBudget {
		t.Fatalf("reason = %v", got)
	}
}

func TestBudgetUnlimited(t *testing.T) {
	b := NewBudget(nil, 0)
	for i := 0; i < 10_000; i++ {
		if err := b.Spend(1); err != nil {
			t.Fatalf("unlimited budget exhausted: %v", err)
		}
	}
	var nilB *Budget
	if err := nilB.Spend(100); err != nil {
		t.Fatalf("nil budget: %v", err)
	}
	if err := nilB.Err(); err != nil {
		t.Fatalf("nil budget err: %v", err)
	}
}

func TestBudgetDeadline(t *testing.T) {
	// The deadline is polled each time the unit count crosses a multiple
	// of pollEvery, so a cancellation must show up within pollEvery
	// spends of one unit, whatever the budget's allowance.
	for _, tc := range []struct {
		name string
		make func(ctx context.Context) *Budget
	}{
		{"unlimited", func(ctx context.Context) *Budget { return NewBudget(ctx, 0) }},
		{"limited", func(ctx context.Context) *Budget { return NewBudget(ctx, 10*pollEvery+17) }},
		{"split-child", func(ctx context.Context) *Budget { return NewBudget(ctx, 9*pollEvery+5).Split(2)[1] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			b := tc.make(ctx)
			cancel()
			var err error
			for i := 0; i < pollEvery; i++ {
				if err = b.Spend(1); err != nil {
					break
				}
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled within %d spends, got %v", pollEvery, err)
			}
			if got := ReasonFor(err); got != ReasonCanceled {
				t.Fatalf("reason = %v", got)
			}
		})
	}
}

func TestBudgetErrPollsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := NewBudget(ctx, 0)
	if err := b.Err(); err != nil {
		t.Fatalf("fresh budget: %v", err)
	}
	cancel()
	if err := b.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err after cancel: %v", err)
	}
}

func TestBudgetExhaust(t *testing.T) {
	b := NewBudget(nil, 1000)
	b.Exhaust()
	if err := b.Spend(1); !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget after Exhaust, got %v", err)
	}
}

func TestGuardPanic(t *testing.T) {
	err := Guard(func() error { panic("boom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want PanicError, got %v", err)
	}
	if pe.Value != "boom" {
		t.Fatalf("value = %v", pe.Value)
	}
	if !strings.Contains(pe.Stack, "TestGuardPanic") {
		t.Fatalf("stack missing frame:\n%s", pe.Stack)
	}
	if ReasonFor(err) != ReasonPanic {
		t.Fatalf("reason = %v", ReasonFor(err))
	}
}

func TestGuardPassthrough(t *testing.T) {
	if err := Guard(func() error { return nil }); err != nil {
		t.Fatalf("nil fn: %v", err)
	}
	want := errors.New("plain")
	if err := Guard(func() error { return want }); err != want {
		t.Fatalf("got %v", err)
	}
	if ReasonFor(want) != ReasonError {
		t.Fatalf("plain error reason = %v", ReasonFor(want))
	}
}

func TestReasonFor(t *testing.T) {
	cases := []struct {
		err  error
		want Reason
	}{
		{nil, ReasonNone},
		{ErrBudget, ReasonBudget},
		{context.DeadlineExceeded, ReasonTimeout},
		{context.Canceled, ReasonCanceled},
		{errors.New("x"), ReasonError},
		{&PanicError{Value: 1}, ReasonPanic},
	}
	for _, c := range cases {
		if got := ReasonFor(c.err); got != c.want {
			t.Errorf("ReasonFor(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestRecorder(t *testing.T) {
	var r Recorder
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Record(Event("pass1.loop", "main/loop0", ErrBudget))
			}
		}()
	}
	wg.Wait()
	if r.Len() != 800 {
		t.Fatalf("len = %d", r.Len())
	}
	if r.Count(ReasonBudget) != 800 {
		t.Fatalf("count = %d", r.Count(ReasonBudget))
	}
	if r.Count(ReasonPanic) != 0 {
		t.Fatalf("panic count = %d", r.Count(ReasonPanic))
	}
	ev := r.Events()[0]
	if ev.Phase != "pass1.loop" || ev.Unit != "main/loop0" || ev.Reason != ReasonBudget {
		t.Fatalf("event = %+v", ev)
	}
	var nilR *Recorder
	nilR.Record(DegradationEvent{})
	if nilR.Len() != 0 || nilR.Events() != nil {
		t.Fatal("nil recorder not inert")
	}
}

func TestEventCapturesStack(t *testing.T) {
	err := Guard(func() error { panic("stackful") })
	ev := Event("pass2.transform", "main/loop1", err)
	if ev.Reason != ReasonPanic || ev.Stack == "" {
		t.Fatalf("event = %+v", ev)
	}
	if !strings.Contains(ev.String(), "pass2.transform main/loop1: panic") {
		t.Fatalf("string = %q", ev.String())
	}
}

func TestInjectPointLifecycle(t *testing.T) {
	defer DisarmAll()
	p := Register("test.point.a")
	if p != Register("test.point.a") {
		t.Fatal("Register not idempotent")
	}
	if err := p.Fire(context.Background()); err != nil {
		t.Fatalf("disarmed fire: %v", err)
	}

	Arm("test.point.a", Fault{Kind: FaultError})
	if err := p.Fire(context.Background()); !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	found := false
	for _, n := range Armed() {
		if n == "test.point.a" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Armed() = %v", Armed())
	}
	Disarm("test.point.a")
	if err := p.Fire(context.Background()); err != nil {
		t.Fatalf("after disarm: %v", err)
	}

	names := Points()
	found = false
	for _, n := range names {
		if n == "test.point.a" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Points() = %v", names)
	}
}

func TestInjectPanic(t *testing.T) {
	defer DisarmAll()
	Arm("test.point.panic", Fault{Kind: FaultPanic})
	err := Guard(func() error { return InjectPoint("test.point.panic", nil) })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want PanicError, got %v", err)
	}
	ip, ok := pe.Value.(*InjectedPanic)
	if !ok || ip.Point != "test.point.panic" {
		t.Fatalf("panic value = %v", pe.Value)
	}
}

func TestInjectDelayRespectsContext(t *testing.T) {
	defer DisarmAll()
	Arm("test.point.delay", Fault{Kind: FaultDelay, Delay: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	err := InjectPoint("test.point.delay", ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("delay ignored cancellation")
	}
}

func TestInjectExhaust(t *testing.T) {
	defer DisarmAll()
	Arm("test.point.exhaust", Fault{Kind: FaultExhaust})
	b := NewBudget(nil, 1000)
	ctx := WithBudget(context.Background(), b)
	if err := InjectPoint("test.point.exhaust", ctx); err != nil {
		t.Fatalf("exhaust fire: %v", err)
	}
	if err := b.Spend(1); !errors.Is(err, ErrBudget) {
		t.Fatalf("budget not exhausted: %v", err)
	}
	// Without a budget in the context, exhaust is a no-op.
	if err := InjectPoint("test.point.exhaust", context.Background()); err != nil {
		t.Fatalf("no-budget exhaust: %v", err)
	}
}

func TestArmSpec(t *testing.T) {
	defer DisarmAll()
	if err := ArmSpec("test.spec.a=panic, test.spec.b=delay:5ms ,test.spec.c=exhaust,test.spec.d=error"); err != nil {
		t.Fatal(err)
	}
	want := []string{"test.spec.a", "test.spec.b", "test.spec.c", "test.spec.d"}
	armed := Armed()
	for _, w := range want {
		found := false
		for _, a := range armed {
			if a == w {
				found = true
			}
		}
		if !found {
			t.Fatalf("point %s not armed; armed = %v", w, armed)
		}
	}

	for _, bad := range []string{"noequals", "=panic", "p=unknown", "p=delay:xyz"} {
		if err := ArmSpec(bad); err == nil {
			t.Errorf("ArmSpec(%q) accepted", bad)
		}
	}
	if err := ArmSpec(""); err != nil {
		t.Errorf("empty spec: %v", err)
	}
}
