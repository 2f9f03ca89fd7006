package main

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"
)

// repoInternal prefixes every frame of the repository's layers.
const repoInternal = "github.com/hpcperf/switchprobe/internal/"

// gcFramePrefixes mark a stack as garbage-collector work: the background
// mark workers, mark assists, sweeping and scavenging.
var gcFramePrefixes = []string{
	"runtime.gc",
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"runtime.markroot",
	"runtime.scanobject",
	"runtime.sweepone",
	"runtime.(*gcWork)",
}

// Folded is a CPU profile attributed to the repository's layers.  Every
// sample lands in exactly one bucket, so Modules, GC and Other add up to
// Total.
type Folded struct {
	// Modules maps an internal/<module> name to the seconds of samples
	// whose innermost repository frame lies in it.
	Modules map[string]float64
	// GC holds samples with no repository frame that run garbage-collector
	// code; Other holds the remaining samples with no repository frame.
	GC, Other float64
	// Total is the sum of every sample.
	Total float64
}

// FoldTraces reads the output of `go tool pprof -traces` for a CPU profile
// and attributes each sample to the innermost internal/<module> frame on
// its stack.
func FoldTraces(r io.Reader) (Folded, error) {
	f := Folded{Modules: map[string]float64{}}
	var (
		value   float64
		frames  []string
		inTrace bool
	)
	flush := func() {
		if !inTrace {
			return
		}
		f.add(value, frames)
		frames, inTrace = frames[:0], false
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "-----------+"):
			flush()
			inTrace = true
			value = -1
		case !inTrace || trimmed == "":
			// Header lines (File:, Type:, Duration: ...) before the first
			// trace.
		case value < 0:
			// The first line of a trace: "<value>   <innermost frame>".
			fields := strings.Fields(trimmed)
			if len(fields) < 2 {
				return f, fmt.Errorf("fold: malformed trace line %q", line)
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return f, fmt.Errorf("fold: sample value in %q: %w", line, err)
			}
			value = d.Seconds()
			frames = append(frames, fields[1])
		default:
			frames = append(frames, strings.Fields(trimmed)[0])
		}
	}
	if err := sc.Err(); err != nil {
		return f, err
	}
	flush()
	return f, nil
}

// add attributes one sample of v seconds with the given stack, innermost
// frame first.
func (f *Folded) add(v float64, frames []string) {
	if v < 0 {
		return // separator with no sample (the closing line)
	}
	f.Total += v
	for _, fr := range frames {
		if m := frameModule(fr); m != "" {
			f.Modules[m] += v
			return
		}
	}
	for _, fr := range frames {
		for _, p := range gcFramePrefixes {
			if strings.HasPrefix(fr, p) {
				f.GC += v
				return
			}
		}
	}
	f.Other += v
}

// frameModule returns the internal/<module> a frame belongs to, or "".
func frameModule(frame string) string {
	rest, ok := strings.CutPrefix(frame, repoInternal)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}
