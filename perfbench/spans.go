package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one benchmark-side span around a call into the engine's public
// functions. Spans of one execution share Exec; execution 0 is input
// generation, which lies outside every metric.
type span struct {
	Exec   int     `json:"exec"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	Dur    float64 `json:"dur_s"`
}

// recorder keeps spans in memory until the run ends. It is used from one
// goroutine only.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index; end closes it.
func (r *recorder) begin(exec, parent int, name string) int {
	r.spans = append(r.spans, span{Exec: exec, ID: len(r.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(r.epoch).Seconds()})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	s := &r.spans[id-1]
	s.Dur = time.Since(r.epoch).Seconds() - s.Start
}

// durations returns, for one execution, the duration of each named span.
func (r *recorder) durations(exec int) map[string]float64 {
	out := map[string]float64{}
	for _, s := range r.spans {
		if s.Exec == exec {
			out[s.Name] += s.Dur
		}
	}
	return out
}

// write dumps every span as JSON.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(r.spans); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
