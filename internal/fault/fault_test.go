package fault

import (
	"errors"
	"fmt"
	"testing"

	"spatialanon/internal/pager"
	"spatialanon/internal/retry"
)

// replaySchedule replays n read/write interceptions against an injector and
// records which ordinals faulted with what kind.
func replaySchedule(in *Injector, n int) []string {
	var out []string
	for i := 0; i < n; i++ {
		id := pager.PageID(i % 7)
		var err error
		if i%2 == 0 {
			err = in.BeforeRead(id)
		} else {
			err = in.BeforeWrite(id)
		}
		if err != nil {
			var fe *Error
			if !errors.As(err, &fe) {
				out = append(out, fmt.Sprintf("%d:untyped", i))
				continue
			}
			out = append(out, fmt.Sprintf("%d:%s:%s:%d", i, fe.Kind, fe.Op, fe.Page))
		}
	}
	return out
}

func TestDeterminism(t *testing.T) {
	cfg := Config{
		TransientReadRate: 0.05, TransientWriteRate: 0.05,
		PermanentReadRate: 0.01, PermanentWriteRate: 0.01,
	}
	a := replaySchedule(NewInjector(42, cfg), 500)
	b := replaySchedule(NewInjector(42, cfg), 500)
	if len(a) == 0 {
		t.Fatal("schedule injected no faults; rates too low for the test")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a, b)
	}
	c := replaySchedule(NewInjector(43, cfg), 500)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestZeroConfigInjectsNothing(t *testing.T) {
	in := NewInjector(1, Config{})
	if faults := replaySchedule(in, 1000); len(faults) != 0 {
		t.Fatalf("zero config injected %v", faults)
	}
	if in.Injected() != 0 || in.Ops() != 1000 {
		t.Fatalf("injected=%d ops=%d", in.Injected(), in.Ops())
	}
}

func TestTransientClassification(t *testing.T) {
	in := NewInjector(7, Config{TransientReadRate: 1})
	err := in.BeforeRead(3)
	if err == nil {
		t.Fatal("rate-1 transient did not fire")
	}
	if !retry.IsTransient(err) {
		t.Fatalf("transient error not classified as transient: %v", err)
	}
	if retry.IsTransient(errors.New("plain")) {
		t.Fatal("plain error classified transient")
	}
	if retry.IsTransient(nil) {
		t.Fatal("nil classified transient")
	}
	// Wrapped transient errors still classify.
	if !retry.IsTransient(fmt.Errorf("flush: %w", err)) {
		t.Fatal("wrapped transient error not classified")
	}
}

func TestPermanentPageStaysFailed(t *testing.T) {
	in := NewInjector(7, Config{PermanentWriteRate: 1, MaxFaults: 1})
	err := in.BeforeWrite(5)
	if err == nil {
		t.Fatal("rate-1 permanent did not fire")
	}
	if retry.IsTransient(err) {
		t.Fatal("permanent error classified transient")
	}
	// Budget is exhausted, but the failed page keeps failing — on reads
	// too, not just writes.
	if err := in.BeforeWrite(5); err == nil {
		t.Fatal("permanent page succeeded on retry")
	}
	if err := in.BeforeRead(5); err == nil {
		t.Fatal("permanent page succeeded on read")
	}
	// Other pages are unaffected (budget spent).
	if err := in.BeforeWrite(6); err != nil {
		t.Fatalf("healthy page failed: %v", err)
	}
	if in.Injected() != 1 {
		t.Fatalf("repeat failures counted: %d", in.Injected())
	}
}

func TestAfterDelaysArming(t *testing.T) {
	in := NewInjector(3, Config{TransientReadRate: 1, After: 10})
	for i := 0; i < 10; i++ {
		if err := in.BeforeRead(pager.PageID(i)); err != nil {
			t.Fatalf("op %d faulted before After threshold", i)
		}
	}
	if err := in.BeforeRead(99); err == nil {
		t.Fatal("armed injector did not fault")
	}
}

func TestMaxFaultsCapsInjection(t *testing.T) {
	in := NewInjector(3, Config{TransientReadRate: 1, MaxFaults: 3})
	faults := 0
	for i := 0; i < 100; i++ {
		if in.BeforeRead(pager.PageID(i)) != nil {
			faults++
		}
	}
	if faults != 3 {
		t.Fatalf("injected %d faults, cap was 3", faults)
	}
}

func TestCorruptWriteKinds(t *testing.T) {
	pageSize := 64
	for name, cfg := range map[string]Config{
		"torn":   {TornWriteRate: 1},
		"bitrot": {BitRotRate: 1},
	} {
		in := NewInjector(11, cfg)
		clean := make([]byte, pageSize)
		for i := range clean {
			clean[i] = byte(i)
		}
		changed := 0
		for trial := 0; trial < 20; trial++ {
			data := append([]byte(nil), clean...)
			if !in.CorruptWrite(pager.PageID(trial), data) {
				t.Fatalf("%s: rate-1 corruption did not fire", name)
			}
			if fmt.Sprint(data) != fmt.Sprint(clean) {
				changed++
			}
		}
		// A torn write may cut at the very end and by chance reproduce
		// the original bytes; bit rot always changes them. Either way
		// the overwhelming majority of trials must differ.
		if changed < 18 {
			t.Fatalf("%s: only %d/20 corruptions changed the page", name, changed)
		}
		if in.Injected() != 20 {
			t.Fatalf("%s: injected=%d", name, in.Injected())
		}
	}
}

func TestCountsAndString(t *testing.T) {
	in := NewInjector(5, Config{TransientReadRate: 1})
	in.BeforeRead(1)
	counts := in.Counts()
	if counts[Transient] != 1 {
		t.Fatalf("counts %v", counts)
	}
	counts[Transient] = 99 // mutation of the copy must not leak back
	if in.Counts()[Transient] != 1 {
		t.Fatal("Counts returned a live reference")
	}
	for k, want := range map[Kind]string{
		Transient: "transient", Permanent: "permanent",
		TornWrite: "torn-write", BitRot: "bit-rot", Kind(9): "fault.Kind(9)",
	} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q", int(k), k.String())
		}
	}
}
