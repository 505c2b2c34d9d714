package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// maxVertexID bounds parsed IDs to the CSR's int32 neighbor storage.
const maxVertexID = 1<<31 - 1

// WriteEdgeList writes the graph in a plain-text edge-list format:
// a header line "# n <vertices> m <edges>" followed by one "u v" pair per
// line with u < v. The format round-trips through ReadEdgeList.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "# n %d m %d\n", g.n, g.M()); err != nil {
		return err
	}
	var werr error
	// One reused scratch buffer per call: AppendInt formats in place, so the
	// edge loop allocates nothing.
	buf := make([]byte, 0, 2*strconv.IntSize/3+2)
	g.Edges(func(u, v int) {
		if werr != nil {
			return
		}
		buf = strconv.AppendInt(buf[:0], int64(u), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(v), 10)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			werr = err
		}
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// ReadEdgeList parses the format produced by WriteEdgeList. Lines starting
// with '#' other than the header, and blank lines, are ignored. If no header
// is present, the vertex count is inferred as max ID + 1.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	n := -1
	var edges []Edge
	maxID := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			var hn, hm int
			if _, err := fmt.Sscanf(line, "# n %d m %d", &hn, &hm); err == nil {
				n = hn
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want two vertex IDs, got %q", lineNo, line)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: negative vertex ID", lineNo)
		}
		if u > maxVertexID || v > maxVertexID {
			return nil, fmt.Errorf("graph: line %d: vertex ID exceeds int32 range", lineNo)
		}
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		if u != v { // tolerate self-loops in external data by dropping them
			edges = append(edges, Edge{int32(u), int32(v)})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: scan: %w", err)
	}
	if n < 0 {
		n = maxID + 1
	}
	if maxID >= n {
		return nil, fmt.Errorf("graph: vertex ID %d exceeds declared n=%d", maxID, n)
	}
	eb := NewEdgeBuilder(n, 1)
	eb.Shard(0).AddEdges(edges)
	return eb.Build(1), nil
}
