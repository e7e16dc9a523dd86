package retry

import (
	"errors"
	"fmt"
	"testing"
)

// transientErr and permanentErr exercise the structural Transient()
// convention without importing internal/fault.
type transientErr struct{}

func (transientErr) Error() string   { return "transient" }
func (transientErr) Transient() bool { return true }

type permanentErr struct{}

func (permanentErr) Error() string   { return "permanent" }
func (permanentErr) Transient() bool { return false }

func TestDo(t *testing.T) {
	cases := []struct {
		name      string
		failures  int   // leading failures before success
		err       error // the error those failures return
		wantCalls int
		wantErr   bool
	}{
		{"first try succeeds", 0, nil, 1, false},
		{"transient absorbed", Budget - 1, transientErr{}, Budget, false},
		{"transient exhausts budget", Budget + 2, transientErr{}, Budget, true},
		{"permanent returns immediately", 5, permanentErr{}, 1, true},
		{"untyped error returns immediately", 5, errors.New("boom"), 1, true},
		{"wrapped transient absorbed", 1, fmt.Errorf("op: %w", transientErr{}), 2, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			tries, err := Do(func() error {
				calls++
				if calls <= tc.failures {
					return tc.err
				}
				return nil
			})
			if calls != tc.wantCalls || tries != calls {
				t.Errorf("calls = %d, tries = %d, want %d", calls, tries, tc.wantCalls)
			}
			if (err != nil) != tc.wantErr {
				t.Errorf("err = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestIsTransient(t *testing.T) {
	if IsTransient(nil) {
		t.Error("nil is not transient")
	}
	if IsTransient(errors.New("x")) {
		t.Error("untyped error is not transient")
	}
	if IsTransient(permanentErr{}) {
		t.Error("Transient()=false is not transient")
	}
	if !IsTransient(fmt.Errorf("wrap: %w", transientErr{})) {
		t.Error("wrapped transient not recognized")
	}
}
