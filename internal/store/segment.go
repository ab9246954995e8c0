package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
)

// This file holds the segment-level read path of the engine: a
// buffered frame-at-a-time scanner (recovery of a multi-GB wal must not
// slurp whole segments into memory) and the per-segment session index
// footer written when a segment is sealed.
//
// A sealed segment ends with two ordinary CRC-framed frames:
//
//	flag 4  index    per-session frame listing for the segment
//	flag 5  trailer  fixed-size locator: magic + offset of the index frame
//
// Both are valid frames, so readers that ignore them (or a segment that
// keeps growing after a reopened tail buries them mid-file) still scan
// correctly: the index is trusted only when the trailer is the last
// trailerFrameSize bytes of the file and every CRC checks out. Scans use
// the index two ways: session-id enumeration without decoding frames, and
// resynchronisation past structural damage in a sealed segment (without an
// index, framing is lost from the first bad byte to the end of the
// segment).

const (
	// trailerMagic marks a trailer frame ("GPS1" little-endian).
	trailerMagic = 0x31535047
	// trailerPayloadSize is flag(1) + magic(4) + index offset(8).
	trailerPayloadSize = 13
	// trailerFrameSize is the full on-disk trailer frame.
	trailerFrameSize = frameHeaderSize + trailerPayloadSize
)

// Sentinel errors of frameScanner.next. Any other non-nil, non-EOF error
// is a real I/O failure and aborts the scan.
var (
	// errTornFrame: structural damage — short header, implausible length,
	// or a length overrunning the file. Nothing after it can be framed.
	errTornFrame = errors.New("store: torn frame")
	// errBadCRC: the frame is well-framed but its payload checksum fails.
	// The scanner has advanced past it, so the caller may keep scanning.
	errBadCRC = errors.New("store: frame crc mismatch")
)

// scannedFrame is one frame read by frameScanner. payload aliases the
// scanner's internal buffer and is valid only until the next call.
type scannedFrame struct {
	payload []byte
	off     int64 // file offset of the frame header
	end     int64 // file offset just past the frame
}

// frameScanner reads a segment file frame by frame through a fixed-size
// buffer, so recovery memory is bounded by the largest single frame, not
// the segment size.
type frameScanner struct {
	f    *os.File
	r    *bufio.Reader
	size int64
	off  int64 // offset of the next unread frame
	buf  []byte
}

func openFrameScanner(path string) (*frameScanner, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: open segment %s: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: stat segment %s: %w", path, err)
	}
	return &frameScanner{f: f, r: bufio.NewReaderSize(f, 1<<16), size: fi.Size()}, nil
}

func (s *frameScanner) close() { s.f.Close() }

// next reads the next frame. It returns io.EOF at a clean end of file,
// errTornFrame at structural damage (scanner position unchanged — use
// resync to continue), errBadCRC for a checksummed-out frame (scanner
// already past it), or a wrapped I/O error.
func (s *frameScanner) next() (scannedFrame, error) {
	fr := scannedFrame{off: s.off, end: s.off}
	if s.off >= s.size {
		return fr, io.EOF
	}
	if s.size-s.off < frameHeaderSize {
		return fr, errTornFrame
	}
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(s.r, hdr[:]); err != nil {
		return fr, fmt.Errorf("store: read segment %s: %w", s.f.Name(), err)
	}
	frameLen := int64(binary.LittleEndian.Uint32(hdr[:4]))
	if frameLen > maxFrameSize || s.off+frameHeaderSize+frameLen > s.size {
		// The header bytes were consumed from the buffer but s.off still
		// points at the frame start; the caller either stops or resyncs to
		// an absolute offset.
		return fr, errTornFrame
	}
	if int64(cap(s.buf)) < frameLen {
		s.buf = make([]byte, frameLen)
	}
	s.buf = s.buf[:frameLen]
	if _, err := io.ReadFull(s.r, s.buf); err != nil {
		return fr, fmt.Errorf("store: read segment %s: %w", s.f.Name(), err)
	}
	s.off += frameHeaderSize + frameLen
	fr.end = s.off
	if crc32.ChecksumIEEE(s.buf) != binary.LittleEndian.Uint32(hdr[4:]) {
		return fr, errBadCRC
	}
	fr.payload = s.buf
	return fr, nil
}

// resync repositions the scanner at an absolute file offset (a frame
// boundary known from the segment's index footer).
func (s *frameScanner) resync(off int64) error {
	if _, err := s.f.Seek(off, io.SeekStart); err != nil {
		return fmt.Errorf("store: seek segment %s: %w", s.f.Name(), err)
	}
	s.r.Reset(s.f)
	s.off = off
	return nil
}

// --- segment index footer ---------------------------------------------------

// Index entry flag bits.
const (
	idxFinished   = 1 << 0
	idxTombstoned = 1 << 1
)

// segIndexEntry is one session's frame listing within a sealed segment.
type segIndexEntry struct {
	sid        string
	finished   bool
	tombstoned bool
	// offsets are the file offsets of the session's frame headers, in
	// append order.
	offsets []int64
}

// segIndexBuilder accumulates the per-session frame listing as the writer
// (or the compactor) appends frames to a segment.
type segIndexBuilder struct {
	m     map[string]*segIndexEntry
	order []string
}

func newSegIndexBuilder() *segIndexBuilder {
	return &segIndexBuilder{m: make(map[string]*segIndexEntry)}
}

func (b *segIndexBuilder) add(sid string, flag byte, off int64) {
	ent := b.m[sid]
	if ent == nil {
		ent = &segIndexEntry{sid: sid}
		b.m[sid] = ent
		b.order = append(b.order, sid)
	}
	switch flag {
	case flagTombstone:
		ent.tombstoned = true
	case flagTerminal, flagSummary:
		ent.finished = true
	}
	ent.offsets = append(ent.offsets, off)
}

func (b *segIndexBuilder) empty() bool { return len(b.order) == 0 }

// entries returns the accumulated listing sorted by session id.
func (b *segIndexBuilder) entries() []segIndexEntry {
	sort.Strings(b.order)
	out := make([]segIndexEntry, 0, len(b.order))
	for _, sid := range b.order {
		out = append(out, *b.m[sid])
	}
	return out
}

// encodeIndexPayload builds an index frame payload: flag byte, session
// count, then per session the id, its flag bits and a delta-encoded offset
// list.
func encodeIndexPayload(entries []segIndexEntry) []byte {
	buf := make([]byte, 0, 64)
	buf = append(buf, flagIndex)
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, ent := range entries {
		buf = appendString(buf, ent.sid)
		var flags byte
		if ent.finished {
			flags |= idxFinished
		}
		if ent.tombstoned {
			flags |= idxTombstoned
		}
		buf = append(buf, flags)
		buf = binary.AppendUvarint(buf, uint64(len(ent.offsets)))
		prev := int64(0)
		for _, off := range ent.offsets {
			buf = binary.AppendUvarint(buf, uint64(off-prev))
			prev = off
		}
	}
	return buf
}

// decodeIndexPayload parses an index frame payload (CRC already checked).
func decodeIndexPayload(payload []byte) ([]segIndexEntry, error) {
	bad := func() ([]segIndexEntry, error) {
		return nil, fmt.Errorf("store: malformed index payload")
	}
	if len(payload) == 0 || payload[0] != flagIndex {
		return bad()
	}
	r := &frameReader{data: payload, off: 1}
	count, ok := r.uvarint()
	if !ok || count > uint64(len(payload)) {
		return bad()
	}
	entries := make([]segIndexEntry, 0, count)
	for i := uint64(0); i < count; i++ {
		var ent segIndexEntry
		if ent.sid, ok = r.string(); !ok || ent.sid == "" {
			return bad()
		}
		flags, ok := r.uvarint()
		if !ok {
			return bad()
		}
		ent.finished = flags&idxFinished != 0
		ent.tombstoned = flags&idxTombstoned != 0
		n, ok := r.uvarint()
		if !ok || n > uint64(len(payload)) {
			return bad()
		}
		ent.offsets = make([]int64, 0, n)
		prev := int64(0)
		for j := uint64(0); j < n; j++ {
			d, ok := r.uvarint()
			if !ok {
				return bad()
			}
			prev += int64(d)
			ent.offsets = append(ent.offsets, prev)
		}
		entries = append(entries, ent)
	}
	if r.off != len(payload) {
		return bad()
	}
	return entries, nil
}

// encodeTrailerPayload builds the fixed-size trailer payload locating the
// index frame.
func encodeTrailerPayload(indexOff int64) []byte {
	buf := make([]byte, 0, trailerPayloadSize)
	buf = append(buf, flagTrailer)
	buf = binary.LittleEndian.AppendUint32(buf, trailerMagic)
	return binary.LittleEndian.AppendUint64(buf, uint64(indexOff))
}

// encodeSegmentFooter renders the index + trailer frames appended when a
// segment is sealed. indexOff is the file offset the index frame lands at.
func encodeSegmentFooter(entries []segIndexEntry, indexOff int64) []byte {
	out := encodeFrame(encodeIndexPayload(entries))
	return append(out, encodeFrame(encodeTrailerPayload(indexOff))...)
}

// readSegmentFooter loads the session index of a sealed segment. ok is
// false — scan the frames instead — when the segment carries no trailer at
// EOF or any part of the footer fails its checks; a footer is never
// required for correctness.
func readSegmentFooter(path string, size int64) (entries []segIndexEntry, indexOff int64, ok bool) {
	if size < trailerFrameSize {
		return nil, 0, false
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, false
	}
	defer f.Close()
	var tr [trailerFrameSize]byte
	if _, err := f.ReadAt(tr[:], size-trailerFrameSize); err != nil {
		return nil, 0, false
	}
	if binary.LittleEndian.Uint32(tr[:4]) != trailerPayloadSize {
		return nil, 0, false
	}
	payload := tr[frameHeaderSize:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(tr[4:8]) {
		return nil, 0, false
	}
	if payload[0] != flagTrailer || binary.LittleEndian.Uint32(payload[1:5]) != trailerMagic {
		return nil, 0, false
	}
	indexOff = int64(binary.LittleEndian.Uint64(payload[5:]))
	if indexOff < 0 || indexOff+frameHeaderSize > size-trailerFrameSize {
		return nil, 0, false
	}
	var hdr [frameHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], indexOff); err != nil {
		return nil, 0, false
	}
	frameLen := int64(binary.LittleEndian.Uint32(hdr[:4]))
	if frameLen > maxFrameSize || indexOff+frameHeaderSize+frameLen > size-trailerFrameSize {
		return nil, 0, false
	}
	payload = make([]byte, frameLen)
	if _, err := f.ReadAt(payload, indexOff+frameHeaderSize); err != nil {
		return nil, 0, false
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:]) {
		return nil, 0, false
	}
	ents, err := decodeIndexPayload(payload)
	if err != nil {
		return nil, 0, false
	}
	return ents, indexOff, true
}

// footerOffsets flattens an index into the sorted set of known frame
// boundaries (every session frame plus the index frame itself), used to
// resynchronise a scan past structural damage.
func footerOffsets(entries []segIndexEntry, indexOff int64) []int64 {
	out := make([]int64, 0, 16)
	for _, ent := range entries {
		out = append(out, ent.offsets...)
	}
	out = append(out, indexOff)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
