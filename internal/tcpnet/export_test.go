package tcpnet

// ReadBufferSize is the per-link read buffer, for the payload-size rows
// that straddle it.
const ReadBufferSize = readBufferSize
