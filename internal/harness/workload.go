package harness

import (
	"encoding/binary"
	"time"
)

// Timestamped payloads: the measurement applications of §4.2 stream packets
// whose delivery latency the evaluation records. The first eight bytes carry
// the (virtual) send time.

// TimestampPayload builds a payload of the given size carrying the send time.
func TimestampPayload(now time.Time, size int) []byte {
	if size < 8 {
		size = 8
	}
	p := make([]byte, size)
	binary.BigEndian.PutUint64(p, uint64(now.UnixNano()))
	return p
}

// DecodeTimestamp extracts the send time from a timestamped payload.
func DecodeTimestamp(p []byte) (time.Time, bool) {
	if len(p) < 8 {
		return time.Time{}, false
	}
	ns := int64(binary.BigEndian.Uint64(p))
	return time.Unix(0, ns), true
}
