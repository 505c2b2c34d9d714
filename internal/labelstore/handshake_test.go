package labelstore

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"

	"repro/internal/adjserve"
	"repro/internal/gen"
)

// TestHandshakeSendsTheFilesBlock: a server over a store sends, in the
// shard-info handshake, the permutation block inside the store's file, byte
// for byte — for a whole store and for each shard of a 3-way split, each
// written by Write, opened by Open and served through Engines. The block is
// cut out of the file by position — its start behind the lens block, its end
// in front of the shard block, the blob length and the blob — never decoded
// and re-encoded, since that re-encoding is what is under test.
func TestHandshakeSendsTheFilesBlock(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(300, 2.5, 2, 13)
	if err != nil {
		t.Fatal(err)
	}
	whole, _ := permutedStore(t, g)
	shards, _ := shardStores(t, g, 3)
	for i, f := range append([]*File{whole}, shards...) {
		var buf bytes.Buffer
		if err := Write(&buf, f); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		start, _ := permBlockRange(t, data, g.N())
		tail := len(f.arena) + len(binary.AppendUvarint(nil, uint64(len(f.arena))))
		if m, ok := f.Shard(); ok {
			tail += len(binary.AppendUvarint(nil, uint64(m.Index))) + 1 + len(binary.AppendUvarint(nil, uint64(f.shard.owned)))
		}
		fileBlock := data[start : len(data)-tail]

		mf, err := Open(writeTemp(t, data))
		if err != nil {
			t.Fatal(err)
		}
		defer mf.Close()
		eng, _, err := mf.Engines()
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := adjserve.NewServer(eng, 0)
		go srv.Serve(ln)
		defer srv.Close()
		c, err := adjserve.Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		si, err := c.ShardInfo()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(si.IDBits, fileBlock) {
			t.Fatalf("store %d (0 whole, then the shards): handshake block of %d bytes differs from the file's %d-byte block", i, len(si.IDBits), len(fileBlock))
		}
	}
}
