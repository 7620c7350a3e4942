// The line-oriented text protocol of caee_serve (docs/serving.md) as a
// thin translation onto the binary framing (serve/framing.h): a text line
// becomes the request frame the binary protocol would carry, and a
// response frame becomes the text the operator sees. `caee_serve
// --streams` serves text through exactly these two functions and the same
// serve::Dispatcher the binary protocol uses, and the --encode-frames /
// --decode-frames translators are these two functions alone — which is
// why the text pipeline and `encode | --binary | decode` print the same
// bytes.
//
// Request lines:
//   open,<id>[,static|spot]   open a session (optional threshold policy)
//   close,<id>                close a session
//   <id>,v1,v2,...            one observation for stream <id>
//   reload,<path>             admin: hot-swap the serving artifact
//   health                    admin: report the model-health gauges

#ifndef CAEE_SERVE_TEXT_PROTOCOL_H_
#define CAEE_SERVE_TEXT_PROTOCOL_H_

#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/framing.h"

namespace caee {
namespace serve {
namespace text {

/// \brief Parse comma-separated float cells. False on any cell that is not
/// exactly one number — an EMPTY cell included, trailing ones too (`1,2,`
/// is three cells, the last empty), matching ts::ReadCsv. `nan`/`inf`
/// parse: rejecting non-finite values is the engine's call.
bool ParseObservation(const std::string& cells, std::vector<float>* out);

/// \brief Encode one request line as its request frame. InvalidArgument
/// when the line is none of the forms above, or is a reload whose path
/// cannot fit a frame; the message reads on from "line <n> ", which the
/// caller supplies.
Status EncodeLine(const std::string& line, framing::Frame* frame);

/// \brief Print one response frame as text: a score as
/// `stream,index,score,flag` on `out`; backpressure, error and
/// health-status answers as one line each on `err`; an ok answer prints
/// nothing. InvalidArgument for a malformed payload or a frame that is
/// not a response.
Status PrintResponse(const framing::Frame& frame, std::ostream& out,
                     std::ostream& err);

}  // namespace text
}  // namespace serve
}  // namespace caee

#endif  // CAEE_SERVE_TEXT_PROTOCOL_H_
