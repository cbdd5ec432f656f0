package live

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// The ORB control facets (the reconfiguration servant's Quiesce, Resume,
// Epoch and Config replies, and the load balancer's Location call) answer a
// few times per deployment, so they keep gob: deployment tools decode the
// replies without linking the event codec. Event payloads never use these
// helpers; they travel in the binary format of codec.go.

// encodeControlReply gob-encodes an ORB control reply.
func encodeControlReply(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("live: encode control reply %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

// decodeControlArg gob-decodes an ORB control argument into out.
func decodeControlArg(arg []byte, out any) error {
	if err := gob.NewDecoder(bytes.NewReader(arg)).Decode(out); err != nil {
		return fmt.Errorf("live: decode control argument %T: %w", out, err)
	}
	return nil
}
