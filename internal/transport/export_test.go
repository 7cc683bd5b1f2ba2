package transport

import "bytes"

// ReplyCodec drives the production reply path without a socket, for the
// external BenchmarkReplyCodec (which needs serve's types, and serve
// imports this package). Encode is what a Server does to a handler's
// result on its way out: respond, then appendReplyFrame into the
// connection's reused buffer. Decode is what a Client does to the frame
// on its way to a caller's out: ReadFrame, route to the pending call,
// decodeBody.
type ReplyCodec struct {
	enc   replyEncoding
	out   []byte
	c     *Client
	reply chan *envelope
}

func NewReplyCodec() *ReplyCodec {
	return &ReplyCodec{c: &Client{pending: make(map[uint64]chan *envelope)}, reply: make(chan *envelope, 1)}
}

func (rc *ReplyCodec) Encode(result any, v2 bool) ([]byte, error) {
	var err error
	rc.enc.v2, rc.enc.scratch = v2, rc.enc.scratch[:0]
	rc.out, err = appendReplyFrame(rc.out[:0], rc.enc.respond(1, result, nil), v2)
	return rc.out, err
}

func (rc *ReplyCodec) Decode(kind string, frame []byte, out any) error {
	payload, err := ReadFrame(bytes.NewReader(frame))
	if err != nil {
		return err
	}
	rc.c.pending[1] = rc.reply
	if err := rc.c.route(payload); err != nil {
		return err
	}
	env := <-rc.reply
	return decodeBody(kind, env.Body, env.binary, out)
}
