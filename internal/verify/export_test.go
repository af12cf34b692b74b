package verify

// Error exposes the checker's error type to the external tests.
type Error = checkError
