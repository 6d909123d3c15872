package transport

// The helpers of this package's tests that the external tests of
// transporttest.FirstPerSender share.
var (
	InboxFrom            = inboxFrom
	BySender             = bySender
	OracleFirstPerSender = oracleFirstPerSender
)
