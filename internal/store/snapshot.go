package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/graph"
)

// A graph snapshot file is the "GSNP" magic, a varint header carrying
// name/nodes/edges/payload-length plus the payload CRC32, followed by the
// graph's varint-CSR encoding (see graph.EncodeBinary). The length and
// CRC cover exactly the payload, so any truncation or corruption fails the
// integrity check instead of silently restoring a smaller graph; a file
// without the magic (such as a snapshot of the retired text format) fails
// it too.

// snapshotMagic opens a snapshot file.
var snapshotMagic = []byte{'G', 'S', 'N', 'P', 1}

func snapshotFile(graphsDir, name string) string {
	return filepath.Join(graphsDir, url.PathEscape(name)+".graph")
}

// encodeSnapshot builds a snapshot file's bytes.
func encodeSnapshot(name string, g *graph.Graph) []byte {
	payload := g.EncodeBinary()
	out := make([]byte, 0, len(payload)+len(name)+64)
	out = append(out, snapshotMagic...)
	out = binary.AppendUvarint(out, uint64(len(name)))
	out = append(out, name...)
	out = binary.AppendUvarint(out, uint64(g.NumNodes()))
	out = binary.AppendUvarint(out, uint64(g.NumEdges()))
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// writeSnapshotFile writes a snapshot payload atomically: a temp file is
// fully written and fsynced, then renamed over the final path, so a crash
// mid-save leaves either the old snapshot or the new one, never a blend.
func writeSnapshotFile(graphsDir, name string, payload []byte, m *metrics) error {
	path := snapshotFile(graphsDir, name)
	tmp, err := os.CreateTemp(graphsDir, ".tmp-*.graph")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(payload); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Pin the rename itself: without the directory fsync a power loss can
	// roll the directory entry back to the old (or no) snapshot.
	if err := syncDir(graphsDir); err != nil {
		return err
	}
	m.snapshotSaves.Add(1)
	m.snapshotBytes.Add(int64(len(payload)))
	return nil
}

// deleteGraphSnapshot removes the snapshot of an unregistered graph.
// Deleting a graph that was never persisted is not an error.
func deleteGraphSnapshot(graphsDir, name string) error {
	if err := os.Remove(snapshotFile(graphsDir, name)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: delete graph %q: %w", name, err)
	}
	if err := syncDir(graphsDir); err != nil {
		return fmt.Errorf("store: delete graph %q: %w", name, err)
	}
	return nil
}

// RecoveredGraph is one graph snapshot restored from disk.
type RecoveredGraph struct {
	Name  string
	Graph *graph.Graph
}

// recoverGraphSnapshots loads every intact graph snapshot in a directory,
// sorted by name. A snapshot failing its integrity check (partial write,
// flipped bytes, header/graph mismatch) is skipped and counted in
// CorruptSnapshots; the file is left in place for inspection.
func recoverGraphSnapshots(graphsDir string, m *metrics) ([]RecoveredGraph, error) {
	entries, err := os.ReadDir(graphsDir)
	if err != nil {
		return nil, fmt.Errorf("store: recover graphs: %w", err)
	}
	var out []RecoveredGraph
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".graph") || strings.HasPrefix(name, ".tmp-") {
			continue
		}
		rg, err := loadSnapshot(filepath.Join(graphsDir, name))
		if err != nil {
			m.corruptSnapshots.Add(1)
			continue
		}
		m.recoveredGraphs.Add(1)
		out = append(out, rg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// loadSnapshot reads and verifies one snapshot file.
func loadSnapshot(path string) (RecoveredGraph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return RecoveredGraph{}, err
	}
	return decodeSnapshot(path, data)
}

// decodeSnapshot verifies and decodes a snapshot file's bytes.
func decodeSnapshot(path string, data []byte) (RecoveredGraph, error) {
	if !bytes.HasPrefix(data, snapshotMagic) {
		return RecoveredGraph{}, fmt.Errorf("store: snapshot %s: integrity check failed: no snapshot magic", path)
	}
	data = data[len(snapshotMagic):]
	r := bytes.NewReader(data)
	nameLen, err := binary.ReadUvarint(r)
	if err != nil || nameLen > uint64(r.Len()) {
		return RecoveredGraph{}, fmt.Errorf("store: snapshot %s: corrupt header", path)
	}
	nameBytes := make([]byte, nameLen)
	if _, err := io.ReadFull(r, nameBytes); err != nil {
		return RecoveredGraph{}, fmt.Errorf("store: snapshot %s: corrupt header", path)
	}
	nodes, err1 := binary.ReadUvarint(r)
	edges, err2 := binary.ReadUvarint(r)
	payloadLen, err3 := binary.ReadUvarint(r)
	if err1 != nil || err2 != nil || err3 != nil {
		return RecoveredGraph{}, fmt.Errorf("store: snapshot %s: corrupt header", path)
	}
	var crcBytes [4]byte
	if _, err := io.ReadFull(r, crcBytes[:]); err != nil {
		return RecoveredGraph{}, fmt.Errorf("store: snapshot %s: corrupt header", path)
	}
	payload := data[len(data)-r.Len():]
	if uint64(len(payload)) != payloadLen ||
		crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(crcBytes[:]) {
		return RecoveredGraph{}, fmt.Errorf("store: snapshot %s: integrity check failed", path)
	}
	g, err := graph.ParseBinary(payload)
	if err != nil {
		return RecoveredGraph{}, fmt.Errorf("store: snapshot %s: %w", path, err)
	}
	if g.NumNodes() != int(nodes) || g.NumEdges() != int(edges) {
		return RecoveredGraph{}, fmt.Errorf("store: snapshot %s: graph does not match header", path)
	}
	return RecoveredGraph{Name: string(nameBytes), Graph: g}, nil
}
