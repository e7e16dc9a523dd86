package wal

import (
	"os"
	"testing"
)

// BenchmarkWriterAppend measures the framing cost of one append with
// fsync disabled, so the number under test is the buffer work, not the
// disk. The PR that introduced the scratch buffer reports the
// allocs/op delta against the fresh-buffer-per-record baseline.
func BenchmarkWriterAppend(b *testing.B) {
	for _, size := range []int{64, 1024} {
		b.Run(byteSize(size), func(b *testing.B) {
			o := Options{Dir: b.TempDir(), NoSync: true}
			f, err := o.open(logName, os.O_RDWR|os.O_CREATE|os.O_APPEND)
			if err != nil {
				b.Fatal(err)
			}
			w := newWriter(f, 0, o)
			defer w.Close()
			payload := make([]byte, size)
			for i := range payload {
				payload[i] = byte(i)
			}
			b.ReportAllocs()
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Append(payload); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
		})
	}
}

func byteSize(n int) string {
	if n >= 1024 {
		return "1KiB"
	}
	return "64B"
}
