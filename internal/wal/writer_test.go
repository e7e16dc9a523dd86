package wal

import (
	"os"
	"testing"

	"spatialanon/internal/fault"
	"spatialanon/internal/pager"
	"spatialanon/internal/retry"
)

// openLog returns a writer appending to a fresh wal.log in a store
// directory held in memory, opened as Open opens it, and the directory.
func openLog(t *testing.T, o Options) (*Writer, *memFS) {
	t.Helper()
	o.FS = newMemFS()
	f, err := o.open(logName, os.O_RDWR|os.O_CREATE|os.O_APPEND)
	if err != nil {
		t.Fatal(err)
	}
	return newWriter(f, 0, o), o.FS.(*memFS)
}

func TestWriterScannerRoundTrip(t *testing.T) {
	w, fs := openLog(t, Options{NoSync: true})
	payloads := [][]byte{{1}, {2, 3}, {}, {4, 5, 6, 7}}
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	sc := NewScanner(fs.read(logName))
	for i, want := range payloads {
		got, ok := sc.Next()
		if !ok {
			t.Fatalf("frame %d missing", i)
		}
		if string(got) != string(want) {
			t.Fatalf("frame %d: got %x want %x", i, got, want)
		}
	}
	if _, ok := sc.Next(); ok || sc.Torn() {
		t.Fatalf("clean end expected: torn=%v", sc.Torn())
	}
}

// TestScannerStopsAtTornTail truncates a log at every byte boundary:
// the scanner must always return exactly the frames that are entirely
// present with valid checksums, flag the tail as torn, and never panic.
func TestScannerStopsAtTornTail(t *testing.T) {
	w, fs := openLog(t, Options{NoSync: true})
	var frameEnds []int
	off := 0
	for i := 0; i < 5; i++ {
		payload := make([]byte, 3*i+1)
		for j := range payload {
			payload[j] = byte(i)
		}
		if err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
		off += len(payload) + frameOverhead
		frameEnds = append(frameEnds, off)
	}
	w.Close()
	img := fs.read(logName)

	completeUpTo := func(n int) int {
		k := 0
		for _, end := range frameEnds {
			if end <= n {
				k++
			}
		}
		return k
	}
	for cut := 0; cut <= len(img); cut++ {
		sc := NewScanner(img[:cut])
		got := 0
		for {
			if _, ok := sc.Next(); !ok {
				break
			}
			got++
		}
		want := completeUpTo(cut)
		if got != want {
			t.Fatalf("cut %d: scanned %d frames, want %d", cut, got, want)
		}
		wantTorn := cut != 0 && !atFrameEnd(frameEnds, cut)
		if sc.Torn() != wantTorn {
			t.Fatalf("cut %d: torn=%v want %v", cut, sc.Torn(), wantTorn)
		}
		if wantTorn && sc.TornBytes() == 0 {
			t.Fatalf("cut %d: torn tail reported empty", cut)
		}
	}
}

func atFrameEnd(ends []int, n int) bool {
	for _, e := range ends {
		if e == n {
			return true
		}
	}
	return false
}

// TestScannerRejectsBitFlip flips each byte of a committed frame: the
// checksum must end the committed prefix there.
func TestScannerRejectsBitFlip(t *testing.T) {
	w, fs := openLog(t, Options{NoSync: true})
	if err := w.Append([]byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("ghij")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	img := fs.read(logName)
	firstEnd := 6 + frameOverhead
	for i := 0; i < firstEnd; i++ {
		dam := append([]byte(nil), img...)
		dam[i] ^= 0x40
		sc := NewScanner(dam)
		n := 0
		for {
			if _, ok := sc.Next(); !ok {
				break
			}
			n++
		}
		// Damage to frame 1 must stop the scan before it: zero frames
		// survive (a corrupted length prefix may also halt it).
		if n != 0 {
			t.Fatalf("byte %d flipped: %d frames accepted", i, n)
		}
		if !sc.Torn() {
			t.Fatalf("byte %d flipped: tail not flagged torn", i)
		}
	}
}

// TestWriterCrashTearsFrame drives the writer through a fault.Crash:
// the fatal append persists only the torn prefix, and the writer is
// dead afterwards, like the process it models.
func TestWriterCrashTearsFrame(t *testing.T) {
	crash := &fault.Crash{At: 3, Torn: 0.5}
	w, fs := openLog(t, Options{NoSync: true, AppendFault: crash.Log})
	payload := []byte("0123456789")
	for i := 0; i < 2; i++ {
		if err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Append(payload); !crashed(err) {
		t.Fatalf("fatal append: %v", err)
	}
	if err := w.Append(payload); !crashed(err) {
		t.Fatalf("append after death: %v", err)
	}
	w.Close()

	img := fs.read(logName)
	frame := len(payload) + frameOverhead
	wantLen := 2*frame + frame/2
	if len(img) != wantLen {
		t.Fatalf("log is %d bytes, want %d (two frames + torn half)", len(img), wantLen)
	}
	sc := NewScanner(img)
	n := 0
	for {
		if _, ok := sc.Next(); !ok {
			break
		}
		n++
	}
	if n != 2 || !sc.Torn() || sc.TornBytes() != frame/2 {
		t.Fatalf("scan: frames=%d torn=%v tornBytes=%d", n, sc.Torn(), sc.TornBytes())
	}
}

// TestAppendFaultClassDecidesRollback puts a crash and a permanent
// device fault under the writer's log file on the same frame. Both
// tear a prefix into the file and both fail the append for good, and
// the writer rolls both back; the class of the fault decides what the
// log holds afterwards: a crashed file refuses the rollback too, so the
// crash leaves its ⌊Torn·len(frame)⌋ bytes past the committed size and
// the writer dead, while the permanent fault is rolled back to the
// committed size and the writer lives.
func TestAppendFaultClassDecidesRollback(t *testing.T) {
	payload := []byte("0123456789abcdef")
	frame := len(payload) + frameOverhead
	for _, tc := range []struct {
		name      string
		hook      func(pager.File) pager.File
		wantCrash bool
		wantTail  int
	}{
		{"crash", (&fault.Crash{At: 2, Torn: 0.75}).Log, true, frame * 3 / 4},
		// After: 1 lets the first frame through; rate 1 fails the second.
		{"permanent", fault.NewInjector(5, fault.Config{PermanentWriteRate: 1, After: 1}).Log, false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, fs := openLog(t, Options{NoSync: true, AppendFault: tc.hook})
			defer w.Close()
			if err := w.Append(payload); err != nil {
				t.Fatal(err)
			}
			err := w.Append(payload)
			if err == nil || crashed(err) != tc.wantCrash || retry.IsTransient(err) {
				t.Fatalf("faulted append: %v", err)
			}
			if dead := w.Err() != nil; dead != tc.wantCrash {
				t.Fatalf("writer dead=%v, want %v (%v)", dead, tc.wantCrash, w.Err())
			}
			if w.retries != 0 {
				t.Fatalf("non-transient fault was retried %d times", w.retries)
			}
			if got := len(fs.read(logName)) - frame; got != tc.wantTail {
				t.Fatalf("%d bytes past the committed size, want %d", got, tc.wantTail)
			}
		})
	}
}

// tornWrites is a log file whose next failAttempts writes fail
// transiently after persisting only half their bytes — the torn partial
// write an O_APPEND retry must not land after.
type tornWrites struct {
	pager.File
	failAttempts int
}

func (f *tornWrites) Write(p []byte) (int, error) {
	if f.failAttempts > 0 {
		f.failAttempts--
		n, _ := f.File.Write(p[:len(p)/2])
		return n, &fault.Error{Op: "append", Kind: fault.Transient}
	}
	return f.File.Write(p)
}

// wrap puts f in front of a writer's log file (Options.AppendFault).
func (f *tornWrites) wrap(lf pager.File) pager.File {
	f.File = lf
	return f
}

// TestAppendRetryRewindsTornPartialWrite: a transient write failure
// leaves half a frame in the log; the retry must truncate that garbage
// away before writing again, or the committed frame (and everything
// after it) hides behind bytes the scanner refuses and recovery
// silently drops acknowledged writes.
func TestAppendRetryRewindsTornPartialWrite(t *testing.T) {
	torn := &tornWrites{failAttempts: 1}
	w, fs := openLog(t, Options{NoSync: true, AppendFault: torn.wrap})
	defer w.Close()
	if err := w.Append([]byte("first")); err != nil {
		t.Fatalf("append with retries: %v", err)
	}
	torn.failAttempts = 1
	if err := w.Append([]byte("second-longer-payload")); err != nil {
		t.Fatalf("second append with retries: %v", err)
	}
	if w.retries != 2 {
		t.Fatalf("writer absorbed %d faults, want 2", w.retries)
	}
	img := fs.read(logName)
	sc := NewScanner(img)
	var got []string
	for {
		p, ok := sc.Next()
		if !ok {
			break
		}
		got = append(got, string(p))
	}
	if sc.Torn() {
		t.Fatalf("log torn after successful appends: % x", img)
	}
	if len(got) != 2 || got[0] != "first" || got[1] != "second-longer-payload" {
		t.Fatalf("scanned %q, want both committed frames", got)
	}
}

// TestScannerHugeLengthPrefix: a corrupt length prefix above MaxInt32
// must end the scan as a torn tail, not overflow int on 32-bit
// platforms and panic the slice expression.
func TestScannerHugeLengthPrefix(t *testing.T) {
	img := []byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5, 6, 7, 8}
	sc := NewScanner(img)
	if _, ok := sc.Next(); ok {
		t.Fatal("frame accepted under a huge length prefix")
	}
	if !sc.Torn() {
		t.Fatal("huge length prefix not flagged torn")
	}
}

func TestAppendRejectsOversizedFrame(t *testing.T) {
	w, _ := openLog(t, Options{NoSync: true})
	defer w.Close()
	if err := w.Append(make([]byte, maxFrame+1)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}
