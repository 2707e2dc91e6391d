package traffic

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/noc"
)

// Trace file format: one record per line, '#' comments allowed.
//
//	U <cycle> <src> <dst> <class>       unicast message
//	M <cycle> <src> <dbv-hex> <class>   multicast message
//
// Class is the noc.Class integer. The format is what cmd/tracegen emits
// and what Replay consumes, letting workloads be captured once and
// re-simulated across design points exactly as the paper replays its
// Simics-captured traces across Garnet configurations.

// WriteTrace runs a generator for the given number of cycles and writes
// every injected message as a trace record. Returns the message count.
func WriteTrace(w io.Writer, g Generator, cycles int64) (int, error) {
	bw := bufio.NewWriter(w)
	count := 0
	var err error
	if _, err = fmt.Fprintf(bw, "# workload: %s cycles: %d\n", g.Name(), cycles); err != nil {
		return 0, err
	}
	for now := int64(0); now < cycles && err == nil; now++ {
		g.Tick(now, func(m noc.Message) {
			if err != nil {
				return
			}
			count++
			if m.Multicast {
				_, err = fmt.Fprintf(bw, "M %d %d %x %d\n", now, m.Src, m.DBV, int(m.Class))
			} else {
				_, err = fmt.Fprintf(bw, "U %d %d %d %d\n", now, m.Src, m.Dst, int(m.Class))
			}
		})
	}
	if err != nil {
		return count, err
	}
	return count, bw.Flush()
}

// Replay feeds a recorded trace back into the network, preserving
// injection cycles.
type Replay struct {
	name string
	msgs []noc.Message
	next int
}

var _ Generator = (*Replay)(nil)

// ReadTrace parses a trace stream into a Replay generator.
func ReadTrace(r io.Reader) (*Replay, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	rp := &Replay{name: "replay"}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if i := strings.Index(line, "workload:"); i >= 0 {
				fields := strings.Fields(line[i:])
				if len(fields) >= 2 {
					rp.name = fields[1]
				}
			}
			continue
		}
		f := strings.Fields(line)
		if len(f) != 5 {
			return nil, fmt.Errorf("traffic: line %d: want 5 fields, got %d", lineNo, len(f))
		}
		cycle, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("traffic: line %d: bad cycle: %v", lineNo, err)
		}
		src, err := strconv.Atoi(f[2])
		if err != nil {
			return nil, fmt.Errorf("traffic: line %d: bad src: %v", lineNo, err)
		}
		class, err := strconv.Atoi(f[4])
		if err != nil {
			return nil, fmt.Errorf("traffic: line %d: bad class: %v", lineNo, err)
		}
		msg := noc.Message{Src: src, Class: noc.Class(class), Inject: cycle}
		switch f[0] {
		case "U":
			dst, err := strconv.Atoi(f[3])
			if err != nil {
				return nil, fmt.Errorf("traffic: line %d: bad dst: %v", lineNo, err)
			}
			msg.Dst = dst
		case "M":
			dbv, err := strconv.ParseUint(f[3], 16, 64)
			if err != nil {
				return nil, fmt.Errorf("traffic: line %d: bad dbv: %v", lineNo, err)
			}
			msg.Multicast = true
			msg.DBV = dbv
		default:
			return nil, fmt.Errorf("traffic: line %d: unknown record %q", lineNo, f[0])
		}
		if len(rp.msgs) > 0 && msg.Inject < rp.msgs[len(rp.msgs)-1].Inject {
			return nil, fmt.Errorf("traffic: line %d: cycles not monotonic", lineNo)
		}
		rp.msgs = append(rp.msgs, msg)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rp, nil
}

// Name implements Generator.
func (r *Replay) Name() string { return r.name }

// Tick implements Generator.
func (r *Replay) Tick(now int64, inject func(noc.Message)) {
	for r.next < len(r.msgs) && r.msgs[r.next].Inject <= now {
		m := r.msgs[r.next]
		m.Inject = now
		inject(m)
		r.next++
	}
}

// Len reports the total number of recorded messages.
func (r *Replay) Len() int { return len(r.msgs) }
