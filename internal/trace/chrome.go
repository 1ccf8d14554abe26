package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ChromeOptions controls the Chrome trace-event export.
type ChromeOptions struct {
	// IncludeReal adds wall-clock spans/events and the sampler counter
	// tracks. They make the file non-reproducible across runs, so the
	// golden tests leave this off.
	IncludeReal bool
}

// WriteChrome writes the recording in the Chrome trace-event JSON
// format (chrome://tracing, Perfetto). Each MPI rank becomes one
// process (pid = rank); whole-process real spans get their own pid.
// Timestamps are integer microseconds, so for a fixed seed, input and
// rank count the virtual export is byte-identical between runs.
func (r *Recorder) WriteChrome(w io.Writer, opts ChromeOptions) error {
	if r == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}
	spans, events, tracks, _, _, meta := r.snapshot()

	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	emit := func(line string) {
		if !first {
			bw.WriteString(",\n")
		} else {
			bw.WriteString("\n")
			first = false
		}
		bw.WriteString(line)
	}

	// Process-name metadata for every pid that appears.
	pids := map[int]bool{}
	for _, s := range spans {
		if s.Real && !opts.IncludeReal {
			continue
		}
		pids[pidFor(s.Rank, s.Real)] = true
	}
	for _, e := range events {
		if e.Real && !opts.IncludeReal {
			continue
		}
		pids[pidFor(e.Rank, e.Real)] = true
	}
	if opts.IncludeReal && len(tracks) > 0 {
		pids[realPID] = true
	}
	for pid := 0; pid <= realPID; pid++ {
		if !pids[pid] {
			continue
		}
		name := fmt.Sprintf("rank %d", pid)
		if pid == realPID {
			name = "process (real time)"
		}
		emit(fmt.Sprintf(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}}`,
			pid, quote(name)))
	}

	// Real spans overlap in wall time (a stage span covers its
	// concurrently aligned Bowtie partitions); give each category its
	// own thread track so the overlap renders as parallel lanes instead
	// of one garbled row.
	// Tids are assigned from the sorted category set, so the mapping is
	// a function of the recording alone.
	realTid := realTids(spans, opts)
	if opts.IncludeReal {
		for cat, tid := range realTid {
			emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`,
				realPID, tid, quote(cat)))
		}
	}

	for _, s := range spans {
		if s.Real && !opts.IncludeReal {
			continue
		}
		tid := 0
		if s.Real {
			tid = realTid[s.Cat]
		}
		emit(fmt.Sprintf(`{"name":%s,"cat":%s,"ph":"X","ts":%d,"dur":%d,"pid":%d,"tid":%d%s}`,
			quote(s.Name), quote(s.Cat), usec(s.Start), usec(s.Dur),
			pidFor(s.Rank, s.Real), tid, argsJSON(s.Arg)))
	}
	// Instant events carry no virtual timestamp of their own (faults
	// fire inside collectives); place them at their per-rank ordinal so
	// ordering is visible and deterministic.
	for _, e := range events {
		if e.Real && !opts.IncludeReal {
			continue
		}
		emit(fmt.Sprintf(`{"name":%s,"cat":%s,"ph":"i","s":"p","ts":%d,"pid":%d,"tid":0%s}`,
			quote(e.Name), quote(e.Cat), int64(e.Seq), pidFor(e.Rank, e.Real), argsJSON(e.Arg)))
	}
	if opts.IncludeReal {
		for _, tr := range tracks {
			for _, p := range tr.Points {
				emit(fmt.Sprintf(`{"name":%s,"cat":"sampler","ph":"C","ts":%d,"pid":%d,"tid":0,"args":{"value":%s}}`,
					quote(tr.Name), usec(p.At), realPID, jsonNum(p.Value)))
			}
		}
	}
	bw.WriteString("\n],\"metadata\":{\"lines\":[")
	for i, m := range meta {
		if i > 0 {
			bw.WriteString(",")
		}
		bw.WriteString(quote(m))
	}
	bw.WriteString("]}}\n")
	return bw.Flush()
}

// realTids maps each real-span category to a stable thread id within
// the real-time process, in sorted-category order.
func realTids(spans []Span, opts ChromeOptions) map[string]int {
	if !opts.IncludeReal {
		return nil
	}
	var cats []string
	seen := map[string]bool{}
	for _, s := range spans {
		if s.Real && !seen[s.Cat] {
			seen[s.Cat] = true
			cats = append(cats, s.Cat)
		}
	}
	sort.Strings(cats)
	tids := make(map[string]int, len(cats))
	for i, c := range cats {
		tids[c] = i
	}
	return tids
}

// realPID is the trace pid grouping whole-process (non-rank) data. It
// must sort after any plausible rank id.
const realPID = 1 << 20

func pidFor(rank int, real bool) int {
	if real || rank == RealRank {
		return realPID
	}
	return rank
}

func usec(sec float64) int64 {
	if math.IsInf(sec, 0) || math.IsNaN(sec) {
		return 0
	}
	return int64(math.Round(sec * 1e6))
}

func quote(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, c := range s {
		switch c {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			if c < 0x20 {
				fmt.Fprintf(&b, `\u%04x`, c)
			} else {
				b.WriteRune(c)
			}
		}
	}
	b.WriteByte('"')
	return b.String()
}

func argsJSON(arg string) string {
	if arg == "" {
		return ""
	}
	return `,"args":{"detail":` + quote(arg) + `}`
}

func jsonNum(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "0"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
