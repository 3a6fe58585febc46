package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteTSV serializes the graph as a simple text format:
//
//	v<TAB>id<TAB>label
//	e<TAB>from<TAB>to<TAB>label
//
// Labels are escaped so tabs, newlines and carriage returns survive
// round trips.
func (g *Graph) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < g.NumVertices(); i++ {
		if _, err := fmt.Fprintf(bw, "v\t%d\t%s\n", i, escape(g.Label(VID(i)))); err != nil {
			return err
		}
	}
	for i := 0; i < g.NumVertices(); i++ {
		for _, e := range g.Out(VID(i)) {
			if _, err := fmt.Fprintf(bw, "e\t%d\t%d\t%s\n", i, e.To, escape(e.Label)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadTSV parses the format written by WriteTSV. Vertex lines must
// appear in id order starting from 0.
func ReadTSV(r io.Reader) (*Graph, error) {
	g := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, "\t")
		switch parts[0] {
		case "v":
			if len(parts) != 3 {
				return nil, fmt.Errorf("graph: line %d: bad vertex line", lineNo)
			}
			id, err := strconv.Atoi(parts[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
			if id != g.NumVertices() {
				return nil, fmt.Errorf("graph: line %d: vertex id %d out of order (expected %d)",
					lineNo, id, g.NumVertices())
			}
			g.AddVertex(unescape(parts[2]))
		case "e":
			if len(parts) != 4 {
				return nil, fmt.Errorf("graph: line %d: bad edge line", lineNo)
			}
			from, err1 := strconv.Atoi(parts[1])
			to, err2 := strconv.Atoi(parts[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("graph: line %d: bad edge ids", lineNo)
			}
			if err := g.AddEdge(VID(from), VID(to), unescape(parts[3])); err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", lineNo, parts[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return g, nil
}

func escape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\t", `\t`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	// The reader's line scanner drops a "\r" before the newline.
	s = strings.ReplaceAll(s, "\r", `\r`)
	return s
}

func unescape(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case 't':
				b.WriteByte('\t')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case '\\':
				b.WriteByte('\\')
			default:
				b.WriteByte(s[i+1])
			}
			i++
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}
