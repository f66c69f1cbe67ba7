package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"time"

	"facilitymap/internal/delta"
)

// followChunk bounds one read from the followed log, so a large append
// is consumed piecewise instead of being read into memory whole.
const followChunk = 64 << 10

// Follow tails a JSONL delta log — the file worldgen -churn -out
// appends to — and feeds each new batch through the single writer
// loop, so a live churn generator drives the daemon without HTTP in
// between. It polls every poll interval (default 1s), waits for the
// file to appear, and keeps the partial last line buffered until its
// newline arrives, so a write that lands mid-record is never split.
//
// Hostile input is counted, never fatal. Malformed lines are counted
// (serve.follow.bad_lines) and skipped; a line that grows past
// maxDeltaBody without a newline counts once and is discarded through
// its newline, so buffering stays bounded. When the path is truncated
// below the read offset or replaced by another file (log rotation),
// the tail drops its partial line and starts over from the beginning
// of what the path names now. Apply failures are likewise counted and
// the tail continues. Follow returns when ctx is done (always with
// ctx's error) or on an unrecoverable file read error.
func (s *Server) Follow(ctx context.Context, path string, poll time.Duration, maxBatch int) error {
	if poll <= 0 {
		poll = time.Second
	}
	if maxBatch <= 0 {
		maxBatch = 256
	}
	t := time.NewTicker(poll)
	defer t.Stop()

	var (
		f       *os.File
		off     int64  // bytes of f consumed so far
		buf     []byte // bytes read but not yet terminated by '\n'
		skip    bool   // discarding an over-long line up to its newline
		pending []delta.Delta
	)
	defer func() {
		if f != nil {
			f.Close()
		}
	}()

	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		batch := pending
		pending = nil
		if _, err := s.enqueue(ctx, batch); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			s.applyErrs.Inc()
		}
		return nil
	}

	// consume splits one read into lines, carrying an unterminated tail
	// in buf, and queues every record it completes.
	consume := func(b []byte) error {
		for len(b) > 0 {
			i := bytes.IndexByte(b, '\n')
			if skip {
				if i < 0 {
					return nil
				}
				skip = false
				b = b[i+1:]
				continue
			}
			if i < 0 {
				if len(buf)+len(b) > maxDeltaBody {
					s.followBad.Inc()
					buf, skip = nil, true
					return nil
				}
				buf = append(buf, b...)
				return nil
			}
			line := b[:i]
			b = b[i+1:]
			if len(buf) > 0 {
				buf = append(buf, line...)
				line = buf
			}
			line = bytes.TrimSpace(line)
			if len(line) > 0 {
				if d, err := delta.Unmarshal(line); err != nil {
					s.followBad.Inc()
				} else {
					pending = append(pending, d)
				}
			}
			buf = buf[:0]
			if len(pending) >= maxBatch {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		return nil
	}

	chunk := make([]byte, followChunk)
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
		if f == nil {
			var err error
			if f, err = os.Open(path); err != nil {
				continue // not created yet; keep waiting
			}
		}
		for {
			n, err := f.Read(chunk)
			off += int64(n)
			if cerr := consume(chunk[:n]); cerr != nil {
				return cerr
			}
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return err
			}
		}
		if err := flush(); err != nil {
			return err
		}
		if replaced(f, path, off) {
			f.Close()
			f, off, buf, skip = nil, 0, nil, false
		}
	}
}

// replaced reports whether path no longer continues what f has been
// read up to: the file was truncated below off, or the path now names
// another file. A path that does not exist right now is not replaced
// yet; the tail keeps its file until a successor appears.
func replaced(f *os.File, path string, off int64) bool {
	now, err := os.Stat(path)
	if err != nil {
		return false
	}
	if now.Size() < off {
		return true
	}
	cur, err := f.Stat()
	return err == nil && !os.SameFile(cur, now)
}
