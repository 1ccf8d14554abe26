// Package collectl stands in for the Collectl monitoring tool the
// paper uses to record RAM usage and runtime of every Trinity stage
// (Figs. 2 and 11). It offers two layers: a Meter that measures real
// wall time and heap growth around a stage executed at laptop scale,
// and a Trace that assembles per-stage (start, duration, RSS) series —
// either measured or projected to paper scale — and renders them as
// the timeline tables the figures plot.
package collectl

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// StageProfile is one stage's row in a trace.
type StageProfile struct {
	Name     string
	Start    float64 // seconds since trace start
	Duration float64 // seconds
	RSSGB    float64 // resident memory attributed to the stage
}

// End returns the stage's finish time.
func (s StageProfile) End() float64 { return s.Start + s.Duration }

// Trace is an ordered sequence of stage profiles.
type Trace struct {
	Stages []StageProfile
}

// Append adds a stage immediately after the previous one.
func (t *Trace) Append(name string, duration, rssGB float64) {
	start := 0.0
	if n := len(t.Stages); n > 0 {
		start = t.Stages[n-1].End()
	}
	t.Stages = append(t.Stages, StageProfile{Name: name, Start: start, Duration: duration, RSSGB: rssGB})
}

// Total returns the latest stage end time.
func (t *Trace) Total() float64 {
	total := 0.0
	for _, s := range t.Stages {
		if s.End() > total {
			total = s.End()
		}
	}
	return total
}

// PeakRSS returns the maximum stage RSS.
func (t *Trace) PeakRSS() float64 {
	peak := 0.0
	for _, s := range t.Stages {
		if s.RSSGB > peak {
			peak = s.RSSGB
		}
	}
	return peak
}

// Render writes the trace as a table plus an ASCII timeline, the
// textual equivalent of the paper's Collectl plots.
func (t *Trace) Render(w io.Writer) error {
	total := t.Total()
	if _, err := fmt.Fprintf(w, "%-22s %12s %12s %10s\n", "stage", "start (h)", "dur (h)", "RSS (GB)"); err != nil {
		return err
	}
	for _, s := range t.Stages {
		if _, err := fmt.Fprintf(w, "%-22s %12.2f %12.2f %10.1f\n",
			s.Name, s.Start/3600, s.Duration/3600, s.RSSGB); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "total: %.2f h, peak RSS: %.1f GB\n", total/3600, t.PeakRSS()); err != nil {
		return err
	}
	// Timeline: one bar per stage, width proportional to duration.
	const width = 60
	for _, s := range t.Stages {
		n := 0
		if total > 0 {
			n = int(s.Duration / total * width)
		}
		if n < 1 {
			n = 1
		}
		bar := make([]byte, n)
		for i := range bar {
			bar[i] = '#'
		}
		if _, err := fmt.Fprintf(w, "%-22s %s\n", s.Name, bar); err != nil {
			return err
		}
	}
	return nil
}

// Meter measures real stages at laptop scale.
type Meter struct {
	start   time.Time
	trace   Trace
	baseRSS uint64
}

// NewMeter starts a measurement session.
func NewMeter() *Meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &Meter{start: time.Now(), baseRSS: ms.HeapAlloc}
}

// Run executes fn as a named stage, recording its wall time and the
// heap in use when it finishes (in GB).
func (m *Meter) Run(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	dur := time.Since(t0).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.trace.Append(name, dur, float64(ms.HeapAlloc)/1e9)
	return err
}

// Trace returns the accumulated stage trace.
func (m *Meter) Trace() *Trace { return &m.trace }
