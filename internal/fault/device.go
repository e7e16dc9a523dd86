package fault

import "spatialanon/internal/pager"

// disk is a page disk behind an injector: onRead and onWrite decide
// whether a page read or write reaches the disk underneath (onWrite may
// also damage the bytes on their way). Everything else passes through.
type disk struct {
	pager.Disk
	onRead  func(id pager.PageID) error
	onWrite func(id pager.PageID, data []byte) error
}

func (d *disk) ReadPage(id pager.PageID) ([]byte, uint32, error) {
	if err := d.onRead(id); err != nil {
		return nil, 0, err
	}
	return d.Disk.ReadPage(id)
}

func (d *disk) WritePage(id pager.PageID, data []byte, sum uint32) error {
	if err := d.onWrite(id, data); err != nil {
		return err
	}
	return d.Disk.WritePage(id, data, sum)
}

// Unwrap returns the disk underneath: the pager's FlipBit, Scrub and
// VerifyPages read the pages at rest, not through the failing device.
func (d *disk) Unwrap() pager.Disk { return d.Disk }

// logFile is a log file behind an injector: onWrite decides whether an
// appending write reaches the file and, when it does not, how many of its
// bytes land anyway; onSync decides an fsync, and onTruncate, if set, a
// truncate. Everything else passes through.
type logFile struct {
	pager.File
	onWrite    func(n int) (tear int, err error)
	onSync     func() error
	onTruncate func() error
}

func (f *logFile) Write(p []byte) (int, error) {
	tear, err := f.onWrite(len(p))
	if err == nil {
		return f.File.Write(p)
	}
	n := 0
	if tear > 0 {
		// Best effort: the failed write tore a prefix into the log, like
		// a real device error (or a power cut) mid-write.
		n, _ = f.File.Write(p[:tear])
	}
	return n, err
}

func (f *logFile) Truncate(size int64) error {
	if f.onTruncate != nil {
		if err := f.onTruncate(); err != nil {
			return err
		}
	}
	return f.File.Truncate(size)
}

func (f *logFile) Sync() error {
	if err := f.onSync(); err != nil {
		return err
	}
	return f.File.Sync()
}
