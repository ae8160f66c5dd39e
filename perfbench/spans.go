package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark's own wrappers. Times are nanoseconds since the trace base;
// parent indexes the enclosing span on the same track (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
}

// track records the spans of one goroutine. A nil *track records nothing,
// so untraced runs pay one nil check per wrapper.
type track struct {
	name  string
	base  time.Time
	spans []span
	open  []int32
}

// tracer owns the tracks of one traced run. Tracks are created before the
// goroutines that use them start and read only after those goroutines end,
// so recording takes no lock.
type tracer struct {
	base   time.Time
	tracks []*track
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// track returns a new track, or nil when tr is nil (tracing off).
func (tr *tracer) track(name string) *track {
	if tr == nil {
		return nil
	}
	t := &track{name: name, base: tr.base}
	tr.tracks = append(tr.tracks, t)
	return t
}

// begin opens a span nested under the innermost open span of the track.
func (t *track) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.base)), Parent: parent})
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *track) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.base))
	t.open = t.open[:len(t.open)-1]
}

// layerTimes is the per-layer result of a trace: self time (span time
// minus the time its child spans cover) and call count per span name.
type layerTimes struct {
	Self  map[string]time.Duration
	Calls map[string]int
	// Wall is the summed duration of root spans. Bench is the part of it
	// inside the benchmark's own spans (see ownSpan), which belongs to no
	// layer. Unattributed is the roots' own self time: wall time no span
	// covers.
	Wall, Bench, Unattributed time.Duration
}

// ownSpan reports whether a span below a track's root times the
// benchmark's own work (generating rows, waiting for a due time, checks
// and the exact reads they make) rather than a call into the program.
func ownSpan(name string) bool { return strings.HasPrefix(name, "bench.") }

// selfTimes computes self time per span name over the given spans of one
// track. A child's interval is clipped to its parent, and overlapping
// children are merged, so no instant is subtracted twice. The benchmark's
// own spans, with every span nested in them, count toward Bench instead.
func selfTimes(spans []span) layerTimes {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	// begin records a parent before its children, so own[s.Parent] is
	// final by the time s is visited.
	own := make([]bool, len(spans))
	lt := layerTimes{Self: map[string]time.Duration{}, Calls: map[string]int{}}
	for i, s := range spans {
		switch {
		case s.Parent < 0:
			lt.Wall += time.Duration(s.End - s.Start)
			lt.Unattributed += time.Duration(s.End - s.Start - coveredBy(s, spans, children[i]))
		case own[s.Parent]:
			own[i] = true
		case ownSpan(s.Name):
			own[i] = true
			lt.Bench += time.Duration(coveredBy(spans[s.Parent], spans, []int{i}))
		default:
			lt.Self[s.Name] += time.Duration(s.End - s.Start - coveredBy(s, spans, children[i]))
			lt.Calls[s.Name]++
		}
	}
	return lt
}

// coveredBy returns how much of parent's interval the given children
// cover, counting overlaps once.
func coveredBy(parent span, spans []span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	started := false
	for _, x := range iv {
		if !started || x[0] > curB {
			if started {
				total += curB - curA
			}
			curA, curB, started = x[0], x[1], true
			continue
		}
		if x[1] > curB {
			curB = x[1]
		}
	}
	if started {
		total += curB - curA
	}
	return total
}

// merge adds another track's layer times into lt.
func (lt *layerTimes) merge(o layerTimes) {
	for k, v := range o.Self {
		lt.Self[k] += v
	}
	for k, v := range o.Calls {
		lt.Calls[k] += v
	}
	lt.Wall += o.Wall
	lt.Bench += o.Bench
	lt.Unattributed += o.Unattributed
}

// stageSumTolerance bounds the share of a traced track's time in the
// program's calls (its wall time less the benchmark's own spans) that
// falls outside every layer span. A larger remainder means a wrapper is
// missing and the per-layer split cannot be trusted.
const stageSumTolerance = 0.10

// stageSum checks that the layer self times of a set of tracks add up to
// the time the tracks spent in the program's calls. It returns the
// unattributed share of that time and whether the sum holds within
// stageSumTolerance.
func stageSum(lt layerTimes) (unattributed float64, ok bool) {
	wall := lt.Wall - lt.Bench
	if wall <= 0 {
		return 0, false
	}
	var sum time.Duration
	for _, v := range lt.Self {
		sum += v
	}
	rest := wall - sum
	share := float64(rest) / float64(wall)
	// The arithmetic must close: the roots' self time is the remainder.
	closes := absDur(rest-lt.Unattributed) <= wall/1000+time.Microsecond
	return share, closes && share >= -stageSumTolerance && share <= stageSumTolerance
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// times returns the merged layer times of the named tracks (all tracks
// when names is empty).
func (tr *tracer) times(names ...string) layerTimes {
	out := layerTimes{Self: map[string]time.Duration{}, Calls: map[string]int{}}
	if tr == nil {
		return out
	}
	for _, t := range tr.tracks {
		if len(names) > 0 && !contains(names, t.name) {
			continue
		}
		out.merge(selfTimes(t.spans))
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// write dumps every track's spans as JSON to path, after the run.
func (tr *tracer) write(path string) error {
	if tr == nil {
		return nil
	}
	type dump struct {
		Track string `json:"track"`
		Spans []span `json:"spans"`
	}
	out := make([]dump, len(tr.tracks))
	for i, t := range tr.tracks {
		out[i] = dump{Track: t.name, Spans: t.spans}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}
