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
