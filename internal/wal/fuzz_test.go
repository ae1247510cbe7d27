package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"testing"
)

// FuzzRecordDecode feeds arbitrary bytes to the WAL's decoders, which share
// tuple.Decoder with the wire: a record payload, a log segment's frames and
// a snapshot file. None may panic or hang, and what decodes must encode
// back to the bytes it came from. A CRC guards every frame, so the frames
// of the input are given correct checksums first; otherwise nearly every
// mutation would stop at the checksum and never reach the decoders behind
// it. Seeded with the pinned log and snapshot of TestRecordBytesPinned.
func FuzzRecordDecode(f *testing.F) {
	for _, h := range []string{pinnedLogHex, pinnedSnapshotHex} {
		file, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(file)
		for off := 0; off < len(file); {
			_, next, err := readRecord(file, off)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(file[off+frameHeader : next]) // one payload
			off = next
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if rec, err := decodePayload(in); err == nil {
			if got := appendRecord(nil, &rec)[frameHeader:]; !bytes.Equal(got, in) {
				t.Fatalf("%s payload %x re-encodes as %x", rec.Kind, in, got)
			}
		}
		file := checksummed(in)
		for off := 0; off < len(file); {
			rec, next, err := readRecord(file, off)
			if err != nil {
				break
			}
			if got := appendRecord(nil, &rec); !bytes.Equal(got, file[off:next]) {
				t.Fatalf("%s frame %x re-encodes as %x", rec.Kind, file[off:next], got)
			}
			off = next
		}
		// A snapshot may interleave its records in an order the writer
		// never uses, so the file need not come back byte for byte; what
		// it decodes to must.
		if snap, err := decodeSnapshot(file); err == nil {
			once := appendSnapshot(nil, snap)
			back, err := decodeSnapshot(once)
			if err != nil {
				t.Fatalf("re-encoded snapshot does not decode: %v", err)
			}
			if twice := appendSnapshot(nil, back); !bytes.Equal(once, twice) {
				t.Fatalf("snapshot %x decodes differently after a round trip:\n %x\n %x", file, once, twice)
			}
		}
	})
}

// checksummed returns a copy of in whose frames, as far as their length
// headers lay them out, carry the CRC of their payloads.
func checksummed(in []byte) []byte {
	out := bytes.Clone(in)
	for off := 0; len(out)-off >= frameHeader; {
		n := int(binary.BigEndian.Uint32(out[off:]))
		if n == 0 || n > len(out)-off-frameHeader {
			break
		}
		payload := out[off+frameHeader : off+frameHeader+n]
		binary.BigEndian.PutUint32(out[off+4:], crc32.ChecksumIEEE(payload))
		off += frameHeader + n
	}
	return out
}
